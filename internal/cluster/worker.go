package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/workload"
)

// WorkerOptions configures a worker process.
type WorkerOptions struct {
	// ID names the worker to the coordinator; empty generates a random id.
	// Re-using an id after a restart expires the old incarnation's leases
	// immediately.
	ID string
	// Coordinator is the coordinator's base URL (required), e.g.
	// http://host:8090.
	Coordinator string
	// Advertise is the base URL the coordinator should dispatch to
	// (required) — this worker's own listener as the coordinator reaches it.
	Advertise string
	// Workers bounds simulation parallelism (the local budget); <= 0 means
	// GOMAXPROCS.
	Workers int
	// Capacity is the slot count advertised to the coordinator; 0 means
	// the budget cap. Advertising more than the budget overcommits: the
	// coordinator pipelines extra dispatches that queue on the local
	// budget (accepted but unstarted — exactly what a drain hands back),
	// while the budget stays the authoritative backpressure.
	Capacity int
	// JobTimeout bounds one job's simulation; 0 means none. A timed-out
	// job is abandoned silently: the coordinator's lease expiry (attempt
	// cap) is the authoritative straggler policy, and reporting a local
	// timeout as failure would turn a slow worker into a wrong answer.
	JobTimeout time.Duration
	// Heartbeat overrides the coordinator-advertised heartbeat interval
	// (tests); 0 uses what registration returns.
	Heartbeat time.Duration
	// HTTP overrides the control-plane client.
	HTTP *http.Client
	// JobDelay injects a fixed delay after a job acquires its budget slots
	// and before it simulates — the chaos harness's slow-worker knob.
	JobDelay time.Duration
}

// wlease tracks one accepted dispatch on the worker side.
type wlease struct {
	id      string
	started bool
	cancel  context.CancelFunc
}

// Worker accepts leased jobs from a coordinator, runs them on a local
// budget via the same service.Local execution core as single-process mode
// (bit-identical results by construction), and reports completions. It
// registers itself with exponential backoff, heartbeats its held leases,
// and on Drain hands unstarted leases back while finishing in-flight ones.
type Worker struct {
	opts   WorkerOptions
	id     string
	budget *sweep.Budget
	client *http.Client

	ctx      context.Context
	cancel   context.CancelFunc
	draining atomic.Bool

	mu         sync.Mutex
	leases     map[string]*wlease
	hbInterval time.Duration

	jobs sync.WaitGroup

	jobsAccepted atomic.Uint64
	jobsRun      atomic.Uint64
	jobsFailed   atomic.Uint64
}

// NewWorker builds a worker; Start launches its control loop.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" || opts.Advertise == "" {
		return nil, errors.New("cluster: worker needs Coordinator and Advertise URLs")
	}
	id := opts.ID
	if id == "" {
		var b [4]byte
		_, _ = rand.Read(b[:])
		id = "w-" + hex.EncodeToString(b[:])
	}
	client := opts.HTTP
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	hb := opts.Heartbeat
	if hb <= 0 {
		hb = time.Second // placeholder until registration advertises one
	}
	return &Worker{
		opts:       opts,
		id:         id,
		budget:     sweep.NewBudget(opts.Workers),
		client:     client,
		leases:     make(map[string]*wlease),
		hbInterval: hb,
	}, nil
}

// ID reports the worker's identity.
func (w *Worker) ID() string { return w.id }

// Start launches the register/heartbeat control loop. The loop (and every
// accepted job) stops when ctx is cancelled — an abrupt stop, as a crash
// would be; call Drain first for a graceful one.
func (w *Worker) Start(ctx context.Context) {
	w.ctx, w.cancel = context.WithCancel(ctx)
	go w.controlLoop()
}

// Stop abandons everything immediately (the chaos tests' kill -9).
func (w *Worker) Stop() {
	if w.cancel != nil {
		w.cancel()
	}
}

// controlLoop registers (with exponential backoff on a refusing or absent
// coordinator), then heartbeats; heartbeat 404 means the coordinator
// forgot us (restart) and triggers immediate re-registration, repeated
// heartbeat transport failures fall back to the registration backoff.
func (w *Worker) controlLoop() {
	const (
		backoffStart = time.Second
		backoffMax   = 30 * time.Second
	)
	backoff := backoffStart
	registered := false
	hbFails := 0
	for {
		if !registered {
			if err := w.register(); err != nil {
				select {
				case <-w.ctx.Done():
					return
				case <-time.After(backoff):
				}
				backoff *= 2
				if backoff > backoffMax {
					backoff = backoffMax
				}
				continue
			}
			registered = true
			backoff = backoffStart
			hbFails = 0
		}
		select {
		case <-w.ctx.Done():
			return
		case <-time.After(w.heartbeatInterval()):
		}
		switch err := w.heartbeat(); {
		case err == nil:
			hbFails = 0
		case errors.Is(err, errUnknownWorker):
			registered = false
		default:
			if hbFails++; hbFails >= 3 {
				registered = false
			}
		}
	}
}

func (w *Worker) heartbeatInterval() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hbInterval
}

func (w *Worker) register() error {
	capacity := w.opts.Capacity
	if capacity <= 0 {
		capacity = w.budget.Cap()
	}
	body, _ := json.Marshal(registerRequest{
		ID:       w.id,
		Addr:     w.opts.Advertise,
		Capacity: capacity,
	})
	resp, err := w.post("/cluster/register", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: register: %s", resp.Status)
	}
	var rr registerResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return fmt.Errorf("cluster: register response: %w", err)
	}
	if w.opts.Heartbeat <= 0 && rr.HeartbeatMS > 0 {
		w.mu.Lock()
		w.hbInterval = time.Duration(rr.HeartbeatMS) * time.Millisecond
		w.mu.Unlock()
	}
	return nil
}

var errUnknownWorker = errors.New("cluster: coordinator does not know this worker")

func (w *Worker) heartbeat() error {
	w.mu.Lock()
	leases := make([]string, 0, len(w.leases))
	for id := range w.leases {
		leases = append(leases, id)
	}
	w.mu.Unlock()
	body, _ := json.Marshal(heartbeatRequest{ID: w.id, Leases: leases})
	resp, err := w.post("/cluster/heartbeat", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusNotFound:
		return errUnknownWorker
	default:
		return fmt.Errorf("cluster: heartbeat: %s", resp.Status)
	}
}

func (w *Worker) post(path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(w.ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.client.Do(req)
}

// Register mounts the worker's dispatch surface on mux: the coordinator's
// /worker/run target plus liveness/readiness for process supervisors.
func (w *Worker) Register(mux *http.ServeMux) {
	mux.HandleFunc("/worker/run", w.handleRun)
	ok := func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte(`{"status":"ok"}` + "\n"))
	}
	mux.HandleFunc("/healthz", ok)
	mux.HandleFunc("/worker/healthz", ok)
	ready := func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		if w.draining.Load() {
			rw.Header().Set("Retry-After", "1")
			rw.WriteHeader(http.StatusServiceUnavailable)
			rw.Write([]byte(`{"status":"draining"}` + "\n"))
			return
		}
		rw.Write([]byte(`{"status":"ready"}` + "\n"))
	}
	mux.HandleFunc("/readyz", ready)
	mux.HandleFunc("/worker/readyz", ready)
}

// Handler returns a mux with the worker surface mounted.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	w.Register(mux)
	return mux
}

// handleRun accepts one leased job: validate, book the lease, run it
// asynchronously, 202. Draining workers refuse (503 + Retry-After) so the
// coordinator's breaker steers dispatches elsewhere during shutdown.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	if w.draining.Load() {
		rw.Header().Set("Retry-After", "1")
		http.Error(rw, "worker draining", http.StatusServiceUnavailable)
		return
	}
	var req dispatchRequest
	if !decodeInto(rw, r, &req) {
		return
	}
	job, err := w.decodeJob(req.Job)
	if err != nil {
		http.Error(rw, "bad job: "+err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := context.WithCancel(w.ctx)
	l := &wlease{id: req.Lease, cancel: cancel}
	w.mu.Lock()
	if _, dup := w.leases[req.Lease]; dup {
		w.mu.Unlock()
		cancel()
		rw.WriteHeader(http.StatusAccepted) // idempotent re-dispatch
		return
	}
	w.leases[req.Lease] = l
	w.mu.Unlock()
	w.jobsAccepted.Add(1)
	w.jobs.Add(1)
	go w.runJob(ctx, l, job, req.Key)
	rw.WriteHeader(http.StatusAccepted)
}

// decodeJob revalidates a wire job through the same gate single-process
// requests pass (service.Job.Normalized).
func (w *Worker) decodeJob(wj wireJob) (service.Job, error) {
	scheme, err := system.ParseScheme(wj.Scheme)
	if err != nil {
		return service.Job{}, err
	}
	scale, err := workload.ParseScale(wj.Scale)
	if err != nil {
		return service.Job{}, err
	}
	var cfg *system.Config
	if len(wj.Config) > 0 && string(wj.Config) != "null" {
		cfg = new(system.Config)
		if err := json.Unmarshal(wj.Config, cfg); err != nil {
			return service.Job{}, fmt.Errorf("config: %w", err)
		}
	}
	job := service.Job{Workload: wj.Workload, Scheme: scheme, Scale: scale, Config: cfg}
	return job.Normalized()
}

// jobObserver marks the lease started (the drain boundary: started jobs
// finish, unstarted ones hand back) and applies the chaos delay. It fires
// between budget acquisition and machine construction inside
// service.Local.Execute.
type jobObserver struct {
	w *Worker
	l *wlease
}

func (o *jobObserver) JobStarted() {
	o.w.mu.Lock()
	o.l.started = true
	o.w.mu.Unlock()
	if d := o.w.opts.JobDelay; d > 0 {
		time.Sleep(d)
	}
}

func (o *jobObserver) JobCompleted(sim.SchedCounters) {}

// runJob executes one lease through the shared execution core and reports
// the outcome. Context-cancellation errors are not reported: they mean
// this worker is dying or drained the lease away, and the coordinator's
// lease machinery — not a completion — decides what happens next.
func (w *Worker) runJob(ctx context.Context, l *wlease, job service.Job, key string) {
	defer w.jobs.Done()
	defer l.cancel()
	if w.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, w.opts.JobTimeout)
		defer cancel()
	}
	exec := &service.Local{Budget: w.budget, Observer: &jobObserver{w: w, l: l}}
	res, err := exec.Execute(ctx, job)

	w.mu.Lock()
	_, tracked := w.leases[l.id]
	delete(w.leases, l.id)
	w.mu.Unlock()
	if !tracked {
		return // drained away: the coordinator already re-dispatched it
	}
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return // abandoned, not failed: let the lease expire and re-dispatch
	}
	cr := completeRequest{ID: w.id, Lease: l.id, Key: key}
	if err != nil {
		w.jobsFailed.Add(1)
		cr.Error = err.Error()
	} else {
		w.jobsRun.Add(1)
		raw, merr := json.Marshal(res)
		if merr != nil {
			cr.Error = fmt.Sprintf("cluster: encoding result: %v", merr)
		} else {
			cr.Results = raw
		}
	}
	w.complete(cr)
}

// complete reports a finished job, retrying briefly: a lost completion
// only costs a redundant re-simulation (the lease expires and the job
// re-runs deterministically), but the retry makes that rare.
func (w *Worker) complete(cr completeRequest) {
	body, _ := json.Marshal(cr)
	for attempt := 0; ; attempt++ {
		resp, err := w.post("/cluster/complete", body)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if attempt >= 2 || w.ctx.Err() != nil {
			return
		}
		select {
		case <-w.ctx.Done():
			return
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// Drain begins graceful shutdown: refuse new dispatches, cancel and hand
// back every lease whose simulation has not started, then wait (bounded
// by ctx) for in-flight simulations to finish and report. After Drain the
// worker still heartbeats until its context is cancelled, so completions
// sent during the drain window stay fresh at the coordinator.
func (w *Worker) Drain(ctx context.Context) {
	w.draining.Store(true)
	w.mu.Lock()
	var handback []string
	for id, l := range w.leases {
		if l.started {
			continue
		}
		l.cancel()
		delete(w.leases, id)
		handback = append(handback, id)
	}
	w.mu.Unlock()
	if len(handback) > 0 {
		body, _ := json.Marshal(releaseRequest{ID: w.id, Leases: handback})
		if resp, err := w.post("/cluster/release", body); err == nil {
			resp.Body.Close()
		}
		// Best effort: if the release is lost, the leases expire anyway.
	}
	done := make(chan struct{})
	go func() {
		w.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
}
