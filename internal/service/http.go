package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

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
	encodeJSON(w, v)
}

// encodeJSON writes v in the service's indented reply form.
func encodeJSON(w io.Writer, v any) {
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

// decodeBody decodes one JSON value from src, a request body read through
// http.MaxBytesReader, into v; what names the request type in the error.
func decodeBody(src io.Reader, v any, what string) error {
	err := json.NewDecoder(src).Decode(v)
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

// handleRun serves POST /run. A cache hit is a lookup: the exact body bytes
// of a request that hit before map to its decoded job, hash and key
// (requestMemo), and the reply is the entry's rendered hit body
// (cacheEntry.hitBody). Everything else decodes, normalizes and hashes the
// request once, and a leader's reply is encoded from its fresh result.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, readErr := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	var req *runRequest
	if readErr == nil {
		req = s.memo.get(body)
	}
	remember := req == nil && readErr == nil // if it resolves as a hit
	if req == nil {
		// Decode what was read, followed by the read's error: the stream a
		// json.Decoder reading the body itself would see, so a bad or
		// oversized body gets the same status and message.
		src := io.Reader(bytes.NewReader(body))
		if readErr != nil {
			src = io.MultiReader(src, errReader{readErr})
		}
		var err error
		if req, err = resolveRun(src); err != nil {
			writeError(w, err)
			return
		}
	}
	e, hit, err := s.runNormalized(r.Context(), req.job, req.key)
	if err != nil {
		writeError(w, err)
		return
	}
	if !hit {
		writeJSON(w, http.StatusOK, req.reply(false, e.res))
		return
	}
	if remember {
		s.memo.put(body, req)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.hitBody(req))
}

// errReader replays a body read's error after the bytes read before it.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// runRequest is a decoded /run request: the normalized job, its
// Config.Hash and its key.
type runRequest struct {
	job  Job
	hash string
	key  string
}

// reply is the /run reply to req.
func (req *runRequest) reply(hit bool, res *system.Results) *RunResponse {
	return &RunResponse{
		Workload:   req.job.Workload,
		Scheme:     req.job.Scheme.String(),
		Scale:      req.job.Scale.String(),
		ConfigHash: req.hash,
		CacheHit:   hit,
		Results:    res,
	}
}

// resolveRun decodes one RunRequest from src, normalizes it and hashes its
// configuration once.
func resolveRun(src io.Reader) (*runRequest, error) {
	var req RunRequest
	if err := decodeBody(src, &req, "RunRequest"); err != nil {
		return nil, err
	}
	job, err := req.job()
	if err != nil {
		return nil, badRequest(err)
	}
	norm, err := job.normalize()
	if err != nil {
		return nil, badRequest(err)
	}
	hash := norm.Config.Hash()
	return &runRequest{job: norm, hash: hash, key: jobKey(norm, hash)}, nil
}

// requestMemo maps the exact bytes of /run bodies that resolved as cache
// hits to their decoded requests, so a repeat of the same bytes skips the
// decode, normalize and Config.Hash. Decoding is a pure function of the
// bytes, so a remembered body always resolves to the same key. Only hits
// are remembered, so a cold one-off job or an invalid request never enters
// it. It keeps one encoding per key: a new encoding of the same job
// replaces the old one, so it never holds more entries than the result
// cache holds results.
type requestMemo struct {
	mu     sync.Mutex
	byBody map[string]*runRequest
	byKey  map[string]string // key -> the body remembered for it
}

func newRequestMemo() *requestMemo {
	return &requestMemo{byBody: make(map[string]*runRequest), byKey: make(map[string]string)}
}

// get returns body's remembered request, or nil.
func (m *requestMemo) get(body []byte) *runRequest {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byBody[string(body)]
}

// put remembers body as req's encoding, forgetting any other encoding of
// req's key.
func (m *requestMemo) put(body []byte, req *runRequest) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.byKey[req.key]; ok {
		delete(m.byBody, old)
	}
	b := string(body)
	m.byBody[b] = req
	m.byKey[req.key] = b
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeBody(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req, "SweepRequest"); err != nil {
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
