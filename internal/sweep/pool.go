package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Budget is a shared worker budget: a counting semaphore sized to a worker
// count that any number of concurrent pool runs (sweeps, suites, ad-hoc
// service jobs) can draw from, so their combined simulation parallelism
// never exceeds the cap. A Budget also tracks how many slots are held and
// how many acquirers are blocked waiting, which the service layer surfaces
// as in-flight/queue-depth statistics.
type Budget struct {
	sem     chan struct{}
	inUse   atomic.Int64
	waiting atomic.Int64
}

// NewBudget sizes a budget; workers <= 0 means GOMAXPROCS.
func NewBudget(workers int) *Budget {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Budget{sem: make(chan struct{}, workers)}
}

// Cap returns the worker capacity.
func (b *Budget) Cap() int { return cap(b.sem) }

// InUse returns the number of slots currently held.
func (b *Budget) InUse() int { return int(b.inUse.Load()) }

// Waiting returns the number of acquirers currently blocked on a full
// budget (the scheduler's queue depth).
func (b *Budget) Waiting() int { return int(b.waiting.Load()) }

// Acquire blocks until a worker slot is free or ctx is done. A nil error
// means the caller holds a slot and must Release it.
func (b *Budget) Acquire(ctx context.Context) error {
	select {
	case b.sem <- struct{}{}:
		b.inUse.Add(1)
		return nil
	default:
	}
	b.waiting.Add(1)
	defer b.waiting.Add(-1)
	select {
	case b.sem <- struct{}{}:
		b.inUse.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot to the budget.
func (b *Budget) Release() {
	b.inUse.Add(-1)
	<-b.sem
}

// runGuarded runs job i holding one budget slot, releasing it on every
// exit path — including a panicking job function. Without the recover, a
// panic would unwind past the release and leak the slot: every subsequent
// pool run sharing the budget would be permanently down a worker (and
// enough leaks deadlock the budget outright). The panic is converted to an
// ordinary job error so the pool's fail-fast path cancels the rest.
func runGuarded(ctx context.Context, i int, b *Budget, run func(ctx context.Context, i int) error) (err error) {
	defer b.Release()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: job %d panicked: %v", i, r)
		}
	}()
	return run(ctx, i)
}

// RunJobs executes n indexed jobs on a bounded worker pool with fail-fast
// cancellation, using a private budget of the given size (workers <= 0
// means GOMAXPROCS). See RunJobsOn for the scheduling contract.
func RunJobs(ctx context.Context, n, workers int, run func(ctx context.Context, i int) error) error {
	// NewBudget maps workers <= 0 to GOMAXPROCS; RunJobsOn never spawns
	// more goroutines than jobs, so an oversized budget is harmless.
	return RunJobsOn(ctx, n, NewBudget(workers), run)
}

// RunJobsOn executes n indexed jobs on the shared budget b (nil means a
// private GOMAXPROCS-sized budget) with fail-fast cancellation. Workers
// pull indices in order and acquire one budget slot per job, so concurrent
// RunJobsOn calls sharing a budget never exceed its cap combined. The first
// job error cancels the pool context, so queued jobs never start and
// running simulations abandon at the kernel's cancellation stride. The
// returned error is the lowest-index job error, preferring real failures
// over cancellation noise; a nil return means every job ran and succeeded.
//
// Jobs communicate results by writing to caller-owned, index-addressed
// storage: distinct indices never alias, so no locking is needed and result
// order is deterministic regardless of scheduling.
func RunJobsOn(ctx context.Context, n int, b *Budget, run func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if b == nil {
		b = NewBudget(0)
	}
	workers := b.Cap()
	if workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if err := b.Acquire(ctx); err != nil {
					errs[i] = err
					continue
				}
				if err := runGuarded(ctx, i, b, run); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()

	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if firstCancel == nil {
				firstCancel = err
			}
			continue
		}
		return err
	}
	return firstCancel
}
