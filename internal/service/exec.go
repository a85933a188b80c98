package service

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/system"
)

// Executor is the scheduler's compute backend: it runs one normalized,
// content-addressed job to completion and returns its Results. The service
// layering is store (resultCache + store.Store), scheduler (Server +
// Executor), transport (http.go + client.go); Executor is the seam between
// the scheduler and wherever the simulation actually happens.
//
// The default executor is Local — a single-process daemon is just the
// degenerate cluster of one in-process worker. cmd/arserved in coordinator
// mode plugs in the internal/cluster dispatcher instead, which leases jobs
// to remote worker processes with the same contract: deterministic,
// bit-identical Results for a given job key, no matter which worker (or how
// many retries) computed them.
type Executor interface {
	// Execute runs job to completion or returns an error. A context
	// cancellation/deadline must abandon the job within a bounded interval.
	// Returning an error wrapping ErrOverloaded means the job was never
	// started and a retry after backoff is safe.
	Execute(ctx context.Context, job Job) (*system.Results, error)
	// Ready reports whether the executor can take on NEW simulation work
	// right now — readiness, not liveness. A Local executor is always
	// ready; a cluster dispatcher with zero live workers is not. The
	// transport layer surfaces this as /readyz and the scheduler sheds
	// new-simulation traffic (503 + Retry-After) while it is false.
	Ready() bool
}

// ExecObserver receives job lifecycle callbacks from a Local executor; the
// Server implements it to keep its sims_started/sims_completed counters.
type ExecObserver interface {
	// JobStarted fires after the job's budget slot is acquired,
	// immediately before the machine is built.
	JobStarted()
	// JobCompleted fires on success. Its argument is always the empty
	// sim.SchedCounters (see its doc comment).
	JobCompleted(sc sim.SchedCounters)
}

// Local runs jobs in-process on a shared worker budget: the degenerate
// one-worker cluster. It is also the execution core of a cluster worker
// process (internal/cluster.Worker wraps the same budget discipline).
type Local struct {
	// Budget bounds total simulation parallelism; required.
	Budget *sweep.Budget
	// Observer, when non-nil, receives lifecycle callbacks.
	Observer ExecObserver
}

// Ready reports true: an in-process executor can always accept work (the
// budget provides backpressure, not unavailability).
func (l *Local) Ready() bool { return true }

// Execute runs one normalized job holding one slot of the shared budget:
// the grid executor's direct runner, with the observer's callbacks.
func (l *Local) Execute(ctx context.Context, job Job) (*system.Results, error) {
	var started func()
	if l.Observer != nil {
		started = l.Observer.JobStarted
	}
	res, err := sweep.Direct(l.Budget, started)(ctx, job.Config, job.Workload, job.Scale)
	if err != nil {
		return nil, fmt.Errorf("service: %s/%s: %w", job.Scheme, job.Workload, err)
	}
	if l.Observer != nil {
		l.Observer.JobCompleted(sim.SchedCounters{})
	}
	return res, nil
}

// QueueReporter is implemented by executors with their own dispatch queue
// (the cluster dispatcher); the scheduler folds it into load shedding and
// the queue_depth gauge.
type QueueReporter interface {
	// Waiting reports how many jobs are blocked waiting for capacity.
	Waiting() int
}

// ClusterReporter is implemented by executors that coordinate a worker
// fleet; the transport layer surfaces the snapshot as the "cluster" section
// of /stats.
type ClusterReporter interface {
	ClusterStats() *ClusterStats
}

// ClusterStats is a point-in-time snapshot of a coordinator's fleet:
// supervision state, lease traffic, and the robustness counters the chaos
// tests pin (jobs_redispatched > 0 after a worker loss, jobs_divergent
// forever 0 — retries never produce divergent results).
type ClusterStats struct {
	// Supervision: the per-worker health state machine's census.
	WorkersAlive   int `json:"workers_alive"`
	WorkersSuspect int `json:"workers_suspect"`
	WorkersDead    int `json:"workers_dead"`

	// Capacity: advertised slots across live workers vs. slots holding a
	// lease right now.
	CapacitySlots int `json:"capacity_slots"`
	LeasedSlots   int `json:"leased_slots"`
	LeasesActive  int `json:"leases_active"`

	// Lease traffic.
	JobsDispatched   uint64 `json:"jobs_dispatched"`
	JobsCompleted    uint64 `json:"jobs_completed"`
	JobsRedispatched uint64 `json:"jobs_redispatched"`
	JobsReturned     uint64 `json:"jobs_returned"`
	JobsLate         uint64 `json:"jobs_late"`
	JobsDivergent    uint64 `json:"jobs_divergent"`
	DispatchRetries  uint64 `json:"dispatch_retries"`

	// Workers is the per-worker detail, sorted by id.
	Workers []WorkerStatus `json:"workers"`
}

// WorkerStatus is one worker's supervision snapshot.
type WorkerStatus struct {
	ID       string `json:"id"`
	Addr     string `json:"addr"`
	State    string `json:"state"` // alive | suspect | dead
	Capacity int    `json:"capacity"`
	InFlight int    `json:"in_flight"`
	// ConsecFailures is the dispatch circuit breaker's failure streak;
	// BreakerOpen reports whether it is holding dispatches off this worker.
	ConsecFailures int  `json:"consec_failures"`
	BreakerOpen    bool `json:"breaker_open"`
	// LastHeartbeatMS is milliseconds since the worker's last heartbeat.
	LastHeartbeatMS int64 `json:"last_heartbeat_ms"`
}
