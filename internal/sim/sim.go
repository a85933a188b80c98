// Package sim provides the discrete-cycle simulation kernel shared by every
// timing model in the repository: a global cycle clock, a component
// registry, and a deterministic random number generator.
//
// All components advance in lockstep, one call to Tick per cycle, in
// registration order. Registration order is part of the simulated machine's
// definition (e.g. routers tick before cores so that responses delivered
// this cycle are visible next cycle), so it is kept deterministic.
//
// The kernel is idle-aware: every Component reports quiescence through
// NextWork. The engine skips the component's Tick for cycles in which it
// provably has no work, and when every registered component is quiescent
// it advances the clock straight to the earliest future event in one step.
// Both skips are exact — a correct NextWork implementation only ever
// suppresses Ticks that would have been no-ops — so simulated results are
// bit-identical to the plain lockstep kernel (see DESIGN.md for the
// idle/wake contract).
package sim

import (
	"context"
	"fmt"
	"math/bits"
)

// cancelStride is how many RunUntil iterations pass between context polls.
// One iteration is one whole-machine step (or one multi-cycle idle jump),
// so the amortized cost is a counter decrement per step — invisible next to
// a step's component scan, and pinned by the CI allocs/op ceiling — while a
// cancelled run is still abandoned within a bounded, small number of steps.
const cancelStride = 4096

// SchedCounters has no fields. It remains only because the
// ExecObserver.JobCompleted signature, which the benchmark module
// implements, names it; it goes with the next change to that module.
type SchedCounters struct{}

// Never is the NextWork return value of a component that cannot make
// progress until some other component hands it new input.
const Never = ^uint64(0)

// Component is the one contract every simulated hardware block implements
// (DESIGN.md "The idle/wake contract"). Tick advances the component by one
// cycle. NextWork reports the earliest cycle >= now at which Tick must run:
// now itself when the component has immediate work, a later cycle when its
// next work is a purely internal timed event, or Never when it is quiescent
// until external input (a delivered packet, a callback) arrives. Whenever
// NextWork(now) > now, Tick(now) must be a no-op.
//
// The engine evaluates NextWork at the component's exact slot in the tick
// order, so the implementation sees precisely the state its Tick would have
// seen — including writes made earlier in the same cycle by components that
// tick before it. Returning now when unsure is always safe; returning a
// future cycle (or Never) when work exists changes simulated results.
//
// The engine caches a future NextWork result and skips re-polling until
// that cycle arrives or the component's Waker fires, so between two of its
// Ticks the reported cycle may only move earlier through an event that
// calls the Waker handed over by SetWaker. Components whose hint is a pure
// function of time may ignore the Waker.
//
// NextWork must not change simulated state, with one exception:
// cpu.Core's NextWork credits the per-cycle stall counter of the cycle it
// skips (and catchUp back-fills jumped cycles), keeping its statistics
// identical to a lockstep run.
type Component interface {
	Tick(cycle uint64)
	NextWork(now uint64) uint64
	SetWaker(w *Waker)
}

// Waker is the engine-side handle a component uses to invalidate its
// cached idle hint. Wake is cheap (a few stores) and safe to call
// redundantly or on a nil receiver.
type Waker struct {
	e   *Engine
	idx int
}

// Wake marks the component's cached quiescence stale so the engine
// re-polls its NextWork: in this same cycle when the caller ticks at an
// earlier slot, in the next cycle otherwise. Components call it from every
// entry point through which the outside world hands them new work (a
// Deliver, an Access, a completion callback).
func (w *Waker) Wake() {
	if w != nil {
		e := w.e
		e.wakeAt[w.idx] = 0
		e.active[w.idx>>6] |= 1 << uint(w.idx&63)
	}
}

// Engine owns the global clock and the ordered set of components.
type Engine struct {
	cycle uint64
	comps []Component
	// wakeAt[i] caches component i's last future NextWork result: while
	// cycle < wakeAt[i] the engine skips the poll. It lives in its own
	// dense array so the per-cycle scan touches eight bytes per component.
	wakeAt []uint64
	// active is a bitmask over components: bit i set means component i
	// must be polled/ticked this cycle. Parked components clear their bit
	// and are re-activated either by Waker.Wake or by the minWake sweep
	// when their cached cycle arrives. Iterating set bits ascending
	// preserves registration (tick) order exactly.
	active []uint64
	// minWake is the earliest cached wakeAt among parked components; when
	// the clock reaches it the engine sweeps wakeAt to re-activate them.
	minWake uint64
	names   []string

	// SkippedTicks counts NextWork polls that suppressed a Tick and
	// JumpedCycles counts clock advances beyond one cycle per step
	// (diagnostics for the idle-aware scheduler; not simulated state).
	SkippedTicks uint64
	JumpedCycles uint64
}

// NewEngine returns an engine at cycle zero with no registered components.
func NewEngine() *Engine { return &Engine{} }

// Register appends a component to the tick order and hands it its Waker.
// The name is used in diagnostics only.
func (e *Engine) Register(name string, c Component) {
	if c == nil {
		panic("sim: Register called with nil component")
	}
	i := len(e.comps)
	e.comps = append(e.comps, c)
	e.wakeAt = append(e.wakeAt, 0)
	e.names = append(e.names, name)
	for len(e.active) <= i>>6 {
		e.active = append(e.active, 0)
	}
	e.active[i>>6] |= 1 << uint(i&63)
	e.minWake = 0
	c.SetWaker(&Waker{e: e, idx: i})
}

// Cycle reports the current cycle (the number of completed steps).
func (e *Engine) Cycle() uint64 { return e.cycle }

// Components reports how many components are registered.
func (e *Engine) Components() int { return len(e.comps) }

// step advances the whole machine by one cycle, skipping components that
// report no work. It returns the earliest cycle at which any skipped
// component has future work; the return value exceeds e.cycle (post
// increment) only when no component ticked at all, in which case no
// simulated state changed this cycle and the clock may be advanced to the
// returned cycle directly.
//
//ar:hotpath
func (e *Engine) step() uint64 {
	c := e.cycle
	if c >= e.minWake {
		// A cached wake is due (or the mask is stale): re-activate every
		// component whose cached cycle has arrived and recompute the horizon.
		min := Never
		for i, wa := range e.wakeAt {
			if e.active[i>>6]&(1<<uint(i&63)) != 0 {
				continue
			}
			if wa <= c {
				e.active[i>>6] |= 1 << uint(i&63)
			} else if wa < min {
				min = wa
			}
		}
		e.minWake = min
	}
	next := e.minWake
	ran := false
	for w := range e.active {
		// The word is re-read every iteration so a component woken by an
		// earlier tick in the same cycle is still visited at its own slot
		// position — exactly like the historical whole-slice scan. done
		// masks every position at or below the last visited bit, so wakes
		// pointing backward wait for the next cycle (also like the scan).
		var done uint64
		for {
			m := e.active[w] &^ done
			if m == 0 {
				break
			}
			b := m & (-m)
			i := w<<6 + bits.TrailingZeros64(m)
			done |= b<<1 - 1
			comp := e.comps[i]
			if wk := comp.NextWork(c); wk > c {
				if wk < next {
					next = wk
				}
				if wk > c+1 {
					// Park the component: no polls until wk or a Wake. A
					// one-cycle wait is cheaper to re-poll than to park
					// (parking would trigger a re-activation sweep on the
					// very next step).
					e.wakeAt[i] = wk
					e.active[w] &^= b
					if wk < e.minWake {
						e.minWake = wk
					}
				}
				e.SkippedTicks++
				continue
			}
			comp.Tick(c)
			ran = true
		}
	}
	e.cycle++
	if ran {
		return e.cycle
	}
	return next
}

// Step advances the whole machine by exactly one cycle.
func (e *Engine) Step() { e.step() }

// RunUntil steps the machine until done() reports true or maxCycles elapse.
// It returns the number of cycles executed and an error on timeout. When
// every component is quiescent the clock jumps to the next pending event in
// O(1) instead of stepping the gap cycle by cycle. The timeout error is a
// *TimeoutError carrying a per-component pending-work snapshot.
func (e *Engine) RunUntil(done func() bool, maxCycles uint64) (uint64, error) {
	return e.RunUntilCtx(context.Background(), done, maxCycles)
}

// RunUntilCtx is RunUntil with cooperative cancellation: ctx is polled on an
// amortized stride (every cancelStride steps), so a cancelled or expired
// context abandons the run within a bounded number of steps at no hot-path
// cost. The cancellation error wraps ctx.Err() for errors.Is dispatch.
func (e *Engine) RunUntilCtx(ctx context.Context, done func() bool, maxCycles uint64) (uint64, error) {
	start := e.cycle
	poll := cancelStride
	for !done() {
		if e.cycle-start >= maxCycles {
			return e.cycle - start, e.timeoutError(maxCycles)
		}
		if poll--; poll <= 0 {
			poll = cancelStride
			if err := ctx.Err(); err != nil {
				return e.cycle - start, fmt.Errorf("sim: run abandoned at cycle %d: %w", e.cycle, err)
			}
		}
		wake := e.step()
		if wake > e.cycle {
			// Nothing ticked and nothing will until wake: the machine is
			// fully quiescent, so the skipped stretch is free of events and
			// done() cannot change within it. A Never wake means permanent
			// quiescence (deadlock); a wake at or past the budget means the
			// machine times out first. Either way fast-forward to the
			// budget and report the timeout the lockstep kernel would have
			// reached cycle by cycle. The saturation guard keeps a
			// near-MaxUint64 budget from wrapping the clock backward.
			limit := start + maxCycles
			if limit < start {
				limit = Never // budget overflows the clock: saturate
			}
			if wake >= limit {
				if limit > e.cycle {
					e.JumpedCycles += limit - e.cycle
					e.cycle = limit
				}
				return e.cycle - start, e.timeoutError(maxCycles)
			}
			e.JumpedCycles += wake - e.cycle
			e.cycle = wake
		}
	}
	return e.cycle - start, nil
}

// RunFor steps the machine exactly n cycles.
func (e *Engine) RunFor(n uint64) {
	for i := uint64(0); i < n; i++ {
		e.Step()
	}
}

// Rand is a deterministic xorshift64* pseudo-random generator. It is used
// instead of math/rand so that simulation results are bit-identical across
// Go releases; determinism is asserted by tests.
type Rand struct{ state uint64 }

// NewRand seeds a generator. A zero seed is remapped to a fixed non-zero
// constant because xorshift has an all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
