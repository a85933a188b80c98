// Package service is the simulation-as-a-service layer: a content-addressed
// result cache plus a bounded shared scheduler in front of the simulator,
// exposed over HTTP by cmd/arserved.
//
// Active-Routing experiments are pure functions of (Config, workload,
// scheme, scale) — the simulator is deterministic by machine definition
// (DESIGN.md, pinned by the golden and determinism tests) — so results are
// cacheable by configuration identity: the cache key is Config.Hash() plus
// the workload name, scheme and scale. Concurrent identical requests are
// de-duplicated with singleflight so each distinct key simulates exactly
// once, and every simulation (ad-hoc job, suite run behind a figure, sweep
// point) draws a slot from one shared worker budget, so the daemon's total
// simulation parallelism is bounded no matter how requests mix.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/workload"
)

// Job is one simulation request: a workload × scheme × scale triple with an
// optional full machine configuration (nil means DefaultConfig(Scheme)).
type Job struct {
	Workload string
	Scheme   system.Scheme
	Scale    workload.Scale
	Config   *system.Config
}

// normalize fills in the default configuration, forces the config's scheme
// to the job's, and validates everything a run would trip over.
func (j Job) normalize() (Job, error) {
	if j.Config == nil {
		cfg := system.DefaultConfig(j.Scheme)
		j.Config = &cfg
	} else {
		cfg := *j.Config // callers keep ownership of their config
		cfg.Scheme = j.Scheme
		j.Config = &cfg
	}
	if err := j.Config.Validate(); err != nil {
		return Job{}, err
	}
	// workload.New validates name, scale and thread count; constructors
	// are bare struct literals (traces build at Init), so this is cheap.
	// It is the same gate system.New applies.
	if _, err := workload.New(j.Workload, j.Scale, j.Config.Threads); err != nil {
		return Job{}, err
	}
	return j, nil
}

// Normalized returns the job with its default configuration filled in and
// every field validated — the form Executor.Execute and Key require. The
// cluster worker revalidates wire-delivered jobs through this, so a
// malformed dispatch fails loudly at the worker instead of deep in the
// kernel.
func (j Job) Normalized() (Job, error) { return j.normalize() }

// Key is the content address of a normalized job: the full-configuration
// hash joined with the workload, scheme and scale. Two jobs share a key iff
// a deterministic simulator must produce bit-identical Results for them.
func (j Job) Key() string { return jobKey(j, j.Config.Hash()) }

// jobKey formats the key of normalized job j from its Config.Hash, for
// callers that already hold the hash (the /run handler echoes it).
func jobKey(j Job, hash string) string {
	return hash + "|" + j.Workload + "|" + j.Scheme.String() + "|" + j.Scale.String()
}

// Options configures a Server.
type Options struct {
	// Workers bounds total simulation parallelism; 0 means GOMAXPROCS.
	Workers int
	// Store, when non-nil, is the durable result store: every record it
	// holds at construction warm-loads into the cache (a restarted daemon
	// serves previously computed jobs with zero re-simulation), and every
	// fresh result is written through. Results are content-addressed by the
	// same job key as the in-memory cache, so determinism makes the store
	// append-only and conflict-free.
	Store *store.Store
	// JobTimeout bounds each simulation's wall-clock time; 0 disables. A
	// hung or deadlocked run is abandoned at the deadline (the kernel's
	// cancellation stride), releasing its budget slots within a bounded
	// interval even when the requester has long disconnected.
	JobTimeout time.Duration
	// MaxQueue sheds load once this many acquirers wait on the budget:
	// requests that would need a NEW simulation fail fast with
	// ErrOverloaded (HTTP 503 + Retry-After) instead of queueing without
	// bound; cached (and in-flight-coalescible) requests are always served.
	// 0 disables shedding.
	MaxQueue int
	// Snapshots, when non-nil, is the durable checkpoint store backing
	// prefix-shared sweeps: family checkpoints persist across restarts, so
	// a repeated study warm-starts its leaders instead of re-simulating
	// their prefixes. Results are unaffected — only wall clock.
	Snapshots *store.Store
	// Executor overrides the compute backend. nil means a Local executor on
	// the server's own budget — the degenerate single-process cluster. The
	// cluster coordinator plugs its lease-dispatching executor in here;
	// everything above the seam (cache, store, shedding, transport) is
	// unchanged.
	Executor Executor
}

// ErrOverloaded is returned for a request that would start a new
// simulation while the server is saturated past Options.MaxQueue or
// draining for shutdown. The job was not started; an identical retry after
// backoff is safe (jobs are deterministic and content-addressed).
var ErrOverloaded = errors.New("service: overloaded, retry later")

// Server is the embeddable service core: cache + scheduler + statistics.
// cmd/arserved wraps it in an HTTP daemon; tests drive it directly.
type Server struct {
	budget     *sweep.Budget
	cache      *resultCache
	memo       *requestMemo
	store      *store.Store
	snaps      *store.Store
	exec       Executor
	start      time.Time
	jobTimeout time.Duration
	maxQueue   int
	draining   atomic.Bool

	mu       sync.Mutex
	hits     uint64
	misses   uint64
	started  uint64 // simulations begun (the singleflight test pins this)
	done     uint64 // simulations completed successfully
	failures uint64
	// Robustness counters.
	shed        uint64 // requests refused with ErrOverloaded
	cancelled   uint64 // jobs abandoned on a cancelled context
	timedOut    uint64 // jobs abandoned at the JobTimeout deadline
	storeLoaded uint64 // records warm-loaded from the store at boot
	storeBadRec uint64 // store records that failed to decode at boot
	storeFails  uint64 // write-through Put failures (results still served)
	sweepForks  uint64 // sweep points resumed from a shared-prefix checkpoint
	sweepWarm   uint64 // sweep leaders warm-started from the snapshot store
}

// New builds a server. When opts.Store is set, every decodable record it
// holds is seeded into the result cache before the first request: a
// restart costs zero re-simulation for previously computed jobs. A stored
// record that fails to decode (e.g. written by an incompatible version) is
// skipped and counted — corrupt bytes were already quarantined by the
// store's own recovery, so this is the last line of defense, not the first.
func New(opts Options) *Server {
	s := &Server{
		budget:     sweep.NewBudget(opts.Workers),
		cache:      newResultCache(),
		memo:       newRequestMemo(),
		store:      opts.Store,
		snaps:      opts.Snapshots,
		start:      time.Now(),
		jobTimeout: opts.JobTimeout,
		maxQueue:   opts.MaxQueue,
	}
	s.exec = opts.Executor
	if s.exec == nil {
		s.exec = &Local{Budget: s.budget, Observer: (*serverObserver)(s)}
	}
	if s.store != nil {
		s.store.Range(func(key string, value []byte) bool {
			var res system.Results
			if err := json.Unmarshal(value, &res); err != nil {
				s.storeBadRec++
				return true
			}
			if s.cache.seed(key, &res) {
				s.storeLoaded++
			}
			return true
		})
	}
	return s
}

// SetDraining flips drain mode: while draining, requests needing a new
// simulation are shed with ErrOverloaded so the daemon's shutdown deadline
// is spent finishing in-flight work, while cached results keep serving.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

// Budget exposes the shared worker budget so callers embedding the server
// can schedule their own work against the same cap.
func (s *Server) Budget() *sweep.Budget { return s.budget }

// Run executes one job through the cache: a repeat of a completed job is a
// pure lookup, concurrent identical jobs coalesce onto one simulation, and
// a fresh job acquires a budget slot and simulates. The bool reports
// whether the result came from the cache (including coalesced waits).
//
// The returned Results are shared across callers and must be treated as
// read-only.
func (s *Server) Run(ctx context.Context, job Job) (*system.Results, bool, error) {
	norm, err := job.normalize()
	if err != nil {
		return nil, false, fmt.Errorf("service: %w", err)
	}
	e, hit, err := s.runNormalized(ctx, norm, norm.Key())
	if e == nil {
		return nil, hit, err
	}
	return e.res, hit, err
}

// runNormalized is Run past the request gate: job must already be
// normalized and key be its Key (the /run handler computes both once per
// request body). It returns the cache entry, so a hit can be written from
// its rendered body; the entry is nil when the request was shed or its
// context ended the wait.
func (s *Server) runNormalized(ctx context.Context, job Job, key string) (*cacheEntry, bool, error) {
	// Load shedding happens before the cache entry is created, and only for
	// requests that cannot be resolved by an existing (completed or
	// in-flight) entry: a saturated or draining server keeps serving its
	// read-mostly traffic. The has/do gap can admit a few extra leaders
	// under contention — shedding is a bound, not an exact gate.
	if !s.cache.has(key) && s.overloaded() {
		s.mu.Lock()
		s.shed++
		s.mu.Unlock()
		return nil, false, ErrOverloaded
	}
	e, hit, err := s.cache.do(ctx, key, func() (*system.Results, error) {
		return s.simulate(ctx, job)
	})
	s.mu.Lock()
	if err != nil {
		s.failures++
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.timedOut++
		case errors.Is(err, context.Canceled):
			s.cancelled++
		}
	} else if hit {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if err == nil && !hit {
		s.persist(key, e.res)
	}
	return e, hit, err
}

// overloaded reports whether a new simulation should be refused right now:
// draining, an executor that cannot take new work (a coordinator with zero
// live workers), or a queue past MaxQueue. Cached traffic is never subject
// to this — the probe in runNormalized happens only on a cache miss.
func (s *Server) overloaded() bool {
	if s.draining.Load() || !s.exec.Ready() {
		return true
	}
	return s.maxQueue > 0 && s.queueDepth() >= s.maxQueue
}

// queueDepth is the scheduler's queue: budget waiters for the local
// executor, the dispatcher's capacity waiters for a cluster one.
func (s *Server) queueDepth() int {
	if q, ok := s.exec.(QueueReporter); ok {
		return q.Waiting()
	}
	return s.budget.Waiting()
}

// Ready reports whether the server should accept new simulation work: the
// transport layer's /readyz. Liveness (/healthz) is unconditional — a
// not-ready server still serves every cached result.
func (s *Server) Ready() bool { return !s.draining.Load() && s.exec.Ready() }

// serverObserver adapts the Server's counters to the Local executor's
// lifecycle callbacks without widening the Server API.
type serverObserver Server

func (o *serverObserver) JobStarted() {
	s := (*Server)(o)
	s.mu.Lock()
	s.started++
	s.mu.Unlock()
}

func (o *serverObserver) JobCompleted(sim.SchedCounters) {
	s := (*Server)(o)
	s.mu.Lock()
	s.done++
	s.mu.Unlock()
}

// persist writes one fresh result through to the durable store. Storage
// failures never fail the request — the result is already computed and
// served from memory — but they are counted, and the next restart simply
// recomputes what was not durable.
func (s *Server) persist(key string, res *system.Results) {
	if s.store == nil {
		return
	}
	b, err := json.Marshal(res)
	if err == nil {
		err = s.store.Put(key, b)
	}
	if err != nil {
		s.mu.Lock()
		s.storeFails++
		s.mu.Unlock()
	}
}

// simulate runs one normalized job through the executor. Cancellation is
// cooperative end-to-end: a cancelled context short-circuits the queue
// wait, and a running simulation is abandoned at the kernel's cancellation
// stride (a remote one at its lease's next checkpoint) — so held resources
// are always released within a bounded interval, even for a deadlocked
// configuration whose requester has disconnected (JobTimeout bounds the
// worst case).
func (s *Server) simulate(ctx context.Context, job Job) (*system.Results, error) {
	if s.jobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.jobTimeout)
		defer cancel()
	}
	return s.exec.Execute(ctx, job)
}

// Sweep executes a named built-in study at the given scale on the shared
// budget. Sweep points mutate configurations away from the defaults and are
// not routed through the result cache (the cache serves the repeat-heavy
// /run and /figures traffic; a sweep is a one-shot grid). Locally, every
// study runs through RunPrefixShared: studies that declare a PrefixCycle
// fork grid points from one checkpoint per shared-prefix family
// (bit-identical results, lower wall clock), warm-starting from the
// snapshot store when one is configured; the others run plainly.
//
// With a cluster executor installed, every grid point dispatches to the
// worker fleet instead (prefix sharing is a single-process optimization;
// determinism keeps the results bit-identical either way), so a sweep
// survives worker loss: an expired lease re-dispatches its point and the
// grid completes with the same bytes.
func (s *Server) Sweep(ctx context.Context, study string, scale workload.Scale) (*sweep.Result, error) {
	grid, err := sweep.StudyGrid(study, scale)
	if err != nil {
		return nil, err
	}
	if _, local := s.exec.(*Local); !local {
		return sweep.RunVia(ctx, grid, s.sweepParallelism(), func(ctx context.Context, cfg *system.Config, wl string, sc workload.Scale) (*system.Results, error) {
			job := Job{Workload: wl, Scheme: cfg.Scheme, Scale: sc, Config: cfg}
			norm, err := job.normalize()
			if err != nil {
				return nil, err
			}
			return s.simulate(ctx, norm)
		})
	}
	res, st, err := sweep.RunPrefixShared(ctx, grid, s.budget, s.snaps)
	if err == nil {
		s.mu.Lock()
		s.sweepForks += uint64(st.ForkResumes)
		s.sweepWarm += uint64(st.StoreHits)
		s.mu.Unlock()
	}
	return res, err
}

// sweepParallelism bounds how many sweep points a cluster sweep keeps in
// flight: twice the fleet's advertised capacity (so dispatch never starves
// while completions post back), floored to keep a degraded fleet draining.
func (s *Server) sweepParallelism() int {
	n := 0
	if r, ok := s.exec.(ClusterReporter); ok {
		n = 2 * r.ClusterStats().CapacitySlots
	}
	if n < 4 {
		n = 4
	}
	return n
}

// Stats is a point-in-time statistics snapshot.
type Stats struct {
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Workers        int     `json:"workers"`
	InFlight       int     `json:"in_flight"`
	QueueDepth     int     `json:"queue_depth"`
	CacheEntries   int     `json:"cache_entries"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	HitRate        float64 `json:"hit_rate"`
	SimsStarted    uint64  `json:"sims_started"`
	SimsCompleted  uint64  `json:"sims_completed"`
	FailedRequests uint64  `json:"failed_requests"`

	// Robustness gauges: durable-store health, load shedding and the
	// cancellation/deadline path (mirrored in the Go client via this shared
	// type).
	Draining                bool   `json:"draining"`
	RequestsShed            uint64 `json:"requests_shed"`
	JobsCancelled           uint64 `json:"jobs_cancelled"`
	JobsTimedOut            uint64 `json:"jobs_timed_out"`
	StoreBytesOnDisk        uint64 `json:"store_bytes_on_disk"`
	StoreRecords            uint64 `json:"store_records"`
	StoreRecordsLoaded      uint64 `json:"store_records_loaded"`
	StoreCorruptQuarantined uint64 `json:"store_corrupt_quarantined"`
	StorePutFailures        uint64 `json:"store_put_failures"`
	// StoreQuarantineWriteFailures counts recovery scans that condemned
	// corrupt bytes but could not preserve them under quarantine/ (directory
	// unwritable): the intact records still loaded and startup proceeded —
	// the failure surfaces here instead of aborting the daemon.
	StoreQuarantineWriteFailures uint64 `json:"store_quarantine_write_failures"`
	SweepForkResumes             uint64 `json:"sweep_fork_resumes"`
	SweepWarmStarts              uint64 `json:"sweep_warm_starts"`

	// Cluster is the coordinator's fleet snapshot (lease traffic, worker
	// supervision); absent in single-process mode.
	Cluster *ClusterStats `json:"cluster,omitempty"`

	// Allocation/GC gauges (runtime.MemStats snapshots) so operators can
	// watch the simulator's memory discipline in production: the machine
	// allocates nothing per operation in steady state, so the
	// per-simulation allocation rate should stay near-constant as traffic
	// grows.
	HeapAllocBytes  uint64  `json:"heap_alloc_bytes"`
	HeapSysBytes    uint64  `json:"heap_sys_bytes"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	MallocsTotal    uint64  `json:"mallocs_total"`
	NumGC           uint32  `json:"num_gc"`
	GCPauseTotalMS  float64 `json:"gc_pause_total_ms"`
	GCCPUFraction   float64 `json:"gc_cpu_fraction"`
}

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		CacheHits:      s.hits,
		CacheMisses:    s.misses,
		SimsStarted:    s.started,
		SimsCompleted:  s.done,
		FailedRequests: s.failures,
		RequestsShed:   s.shed,
		JobsCancelled:  s.cancelled,
		JobsTimedOut:   s.timedOut,

		SweepForkResumes: s.sweepForks,
		SweepWarmStarts:  s.sweepWarm,
	}
	storeBad := s.storeBadRec
	st.StoreRecordsLoaded = s.storeLoaded
	st.StorePutFailures = s.storeFails
	s.mu.Unlock()
	st.Draining = s.draining.Load()
	if s.store != nil {
		ss := s.store.Stats()
		st.StoreBytesOnDisk = uint64(ss.BytesOnDisk)
		st.StoreRecords = uint64(ss.Records)
		// Quarantines seen by the store's recovery scan plus records the
		// service could not decode after a clean read.
		st.StoreCorruptQuarantined = uint64(ss.CorruptRecords) + storeBad
		st.StoreQuarantineWriteFailures = uint64(ss.QuarantineFailures)
	}
	if r, ok := s.exec.(ClusterReporter); ok {
		st.Cluster = r.ClusterStats()
	}
	st.UptimeSeconds = time.Since(s.start).Seconds()
	st.Workers = s.budget.Cap()
	st.InFlight = s.budget.InUse()
	st.QueueDepth = s.queueDepth()
	st.CacheEntries = s.cache.len()
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		st.HitRate = float64(st.CacheHits) / float64(total)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.HeapAllocBytes = ms.HeapAlloc
	st.HeapSysBytes = ms.HeapSys
	st.TotalAllocBytes = ms.TotalAlloc
	st.MallocsTotal = ms.Mallocs
	st.NumGC = ms.NumGC
	st.GCPauseTotalMS = float64(ms.PauseTotalNs) / 1e6
	st.GCCPUFraction = ms.GCCPUFraction
	return st
}
