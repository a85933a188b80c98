package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/system"
	"repro/internal/workload"
)

// RunRequest is the wire form of a Job: scheme and scale travel as their
// CLI spellings, and the optional config is the full system.Config (its
// Scheme field is overridden by the request's scheme).
type RunRequest struct {
	Workload string         `json:"workload"`
	Scheme   string         `json:"scheme"`
	Scale    string         `json:"scale"`
	Config   *system.Config `json:"config,omitempty"`
}

// job parses the wire request into a Job.
func (r *RunRequest) job() (Job, error) {
	sch, err := system.ParseScheme(r.Scheme)
	if err != nil {
		return Job{}, err
	}
	scale, err := workload.ParseScale(r.Scale)
	if err != nil {
		return Job{}, err
	}
	return Job{Workload: r.Workload, Scheme: sch, Scale: scale, Config: r.Config}, nil
}

// RunResponse is /run's reply: the job echo, its content address, whether
// the cache served it, and the full simulation results.
type RunResponse struct {
	Workload   string          `json:"workload"`
	Scheme     string          `json:"scheme"`
	Scale      string          `json:"scale"`
	ConfigHash string          `json:"config_hash"`
	CacheHit   bool            `json:"cache_hit"`
	Results    *system.Results `json:"results"`
}

// SweepRequest is /sweep's wire form: a built-in study name plus a scale.
type SweepRequest struct {
	Study string `json:"study"`
	Scale string `json:"scale"`
}

// FigureResponse wraps /figures/{id}'s derived data table.
type FigureResponse struct {
	Figure string `json:"figure"`
	Scale  string `json:"scale"`
	Data   any    `json:"data"`
}

// Handler returns the service's HTTP mux:
//
//	POST /run          RunRequest -> RunResponse
//	POST /sweep        SweepRequest -> sweep.Result
//	GET  /figures/{id} ?scale=tiny -> FigureResponse
//	GET  /healthz      liveness (always 200 while the process serves)
//	GET  /readyz       readiness (503 while draining or with no live workers)
//	GET  /stats        Stats snapshot
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// Register installs the service routes on mux, so cmd/arserved can mount
// additional route families (the cluster coordinator's internal protocol)
// on the same listener.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("POST /sweep", s.handleSweep)
	mux.HandleFunc("GET /figures/{id}", s.handleFigure)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
}

// writeJSON emits one JSON body; encoding errors after the header is out
// are connection-level and not recoverable, so they are ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps an error to a JSON problem body: request-shaped failures
// (unknown workload/scheme/scale/figure, invalid config) are 400s, an
// oversized body a 413, shed load a 503 with Retry-After so well-behaved
// clients back off, everything else a 500.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, errBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, errTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrOverloaded):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// retryAfterSeconds is the Retry-After hint sent with shed requests. Jobs
// are short at service scales; a single-digit pause clears most bursts.
const retryAfterSeconds = "2"

// errBadRequest marks request-shaped failures for status mapping.
var errBadRequest = errors.New("bad request")

// badRequest wraps err so writeError reports 400.
func badRequest(err error) error { return fmt.Errorf("%w: %w", errBadRequest, err) }

// errTooLarge marks a request body over maxRequestBytes (413).
var errTooLarge = errors.New("request body too large")

// maxRequestBytes bounds a decoded request body. A RunRequest carrying a
// full Config is a few KB, so the bound only stops malformed or hostile
// clients from making the server buffer without limit.
const maxRequestBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxRequestBytes;
// what names the request type in the error.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return nil
	case errors.As(err, &tooLarge):
		return fmt.Errorf("%w: %s exceeds %d bytes", errTooLarge, what, tooLarge.Limit)
	default:
		return badRequest(fmt.Errorf("decoding %s: %w", what, err))
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := decodeBody(w, r, &req, "RunRequest"); err != nil {
		writeError(w, err)
		return
	}
	job, err := req.job()
	if err != nil {
		writeError(w, badRequest(err))
		return
	}
	norm, err := job.normalize()
	if err != nil {
		writeError(w, badRequest(err))
		return
	}
	res, hit, err := s.runNormalized(r.Context(), norm)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &RunResponse{
		Workload:   job.Workload,
		Scheme:     job.Scheme.String(),
		Scale:      job.Scale.String(),
		ConfigHash: norm.Config.Hash(),
		CacheHit:   hit,
		Results:    res,
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(w, r, &req, "SweepRequest"); err != nil {
		writeError(w, err)
		return
	}
	scale, err := workload.ParseScale(req.Scale)
	if err != nil {
		writeError(w, badRequest(err))
		return
	}
	res, err := s.Sweep(r.Context(), req.Study, scale)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	scaleName := r.URL.Query().Get("scale")
	if scaleName == "" {
		scaleName = "tiny"
	}
	scale, err := workload.ParseScale(scaleName)
	if err != nil {
		writeError(w, badRequest(err))
		return
	}
	id := r.PathValue("id")
	known := false
	for _, f := range FigureIDs() {
		if f == id {
			known = true
			break
		}
	}
	if !known {
		writeError(w, badRequest(fmt.Errorf("unknown figure %q (want one of %v)", id, FigureIDs())))
		return
	}
	data, err := s.Figure(r.Context(), id, scale)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &FigureResponse{Figure: id, Scale: scale.String(), Data: data})
}

// handleHealthz is LIVENESS: it answers 200 whenever the process can serve
// at all — a draining daemon or a coordinator with zero workers still
// serves every cached result, and killing it would lose that. Orchestrators
// gate restarts on this and routing on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "workers": s.budget.Cap()})
}

// handleReadyz is READINESS: 503 (with Retry-After) while the server would
// shed new simulation work — draining for shutdown, or a cluster
// coordinator whose fleet has no live workers. Orchestrators stop routing
// NEW work here without killing the cache-serving process.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
	case !s.exec.Ready():
		w.Header().Set("Retry-After", retryAfterSeconds)
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no-live-workers"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
