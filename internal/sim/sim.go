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
	"strconv"
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
// NextWork must not change simulated state, with one exception: per-cycle
// stall counters, kept through a Stall. A component waiting on a refusal or
// a fence (cpu.Core, the system's message interface) credits the counter
// its skipped Tick would have bumped, for the polled cycle and for every
// cycle it was not polled, keeping its statistics identical to a Lockstep
// run.
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
// Deliver, an Access, a completion callback). The component's entry in the
// wake heap, if any, goes stale and is dropped when it surfaces.
func (w *Waker) Wake() {
	if w != nil {
		e := w.e
		e.meta[w.idx].wakeAt = 0
		e.active[w.idx>>6] |= 1 << uint(w.idx&63)
	}
}

// wakeup is one wake-heap entry: component idx parked until cycle at.
type wakeup struct {
	at  uint64
	idx int
}

// compMeta is the engine's bookkeeping for one registered component.
type compMeta struct {
	// wakeAt is the cycle the component is parked until (0 while it is
	// active). A wake-heap entry is live only while its component is
	// parked and wakeAt still holds the entry's cycle.
	wakeAt uint64
	ticks  uint64
	// class and index name the component for diagnostics: the class
	// alone when index < 0, else the class followed by the index.
	class string
	index int
}

// Engine owns the global clock and the ordered set of components.
type Engine struct {
	cycle uint64
	comps []Component
	meta  []compMeta
	// active is a bitmask over components: bit i set means component i
	// must be polled/ticked this cycle. Parked components clear their bit
	// and are re-activated either by Waker.Wake or by the wake heap when
	// their cycle arrives. Iterating set bits ascending preserves
	// registration (tick) order exactly.
	active []uint64
	// heap is a binary min-heap of wakeups ordered by cycle: parking a
	// component pushes one, and each step pops those that are due. Entries
	// made stale by a Wake or a later re-park are skipped, not removed.
	heap []wakeup

	// Lockstep makes every step tick every component and never consult
	// NextWork: the plain kernel whose results the idle-aware scheduler
	// must reproduce bit for bit. Tests set it as an oracle for the
	// idle/wake contract; it is many times slower.
	Lockstep bool

	// SkippedTicks counts NextWork polls that suppressed a Tick and
	// JumpedCycles counts clock advances beyond one cycle per step
	// (diagnostics for the idle-aware scheduler; not simulated state).
	SkippedTicks uint64
	JumpedCycles uint64
}

// NewEngine returns an engine at cycle zero with no registered components.
func NewEngine() *Engine { return &Engine{} }

// Register appends a component to the tick order and hands it its Waker.
// class and index name it in diagnostics only: the class alone when index
// is negative, else the class followed by the index.
func (e *Engine) Register(class string, index int, c Component) {
	if c == nil {
		panic("sim: Register called with nil component")
	}
	i := len(e.comps)
	e.comps = append(e.comps, c)
	e.meta = append(e.meta, compMeta{class: class, index: index})
	for len(e.active) <= i>>6 {
		e.active = append(e.active, 0)
	}
	e.active[i>>6] |= 1 << uint(i&63)
	c.SetWaker(&Waker{e: e, idx: i})
}

// Name formats the diagnostic name of the component registered i-th.
func (e *Engine) Name(i int) string {
	if m := &e.meta[i]; m.index >= 0 {
		return m.class + strconv.Itoa(m.index)
	}
	return e.meta[i].class
}

// Ticks reports how many times the component registered i-th has ticked:
// a diagnostic like SkippedTicks, the same on every run of a machine.
func (e *Engine) Ticks(i int) uint64 { return e.meta[i].ticks }

// Cycle reports the current cycle (the number of completed steps).
func (e *Engine) Cycle() uint64 { return e.cycle }

// Components reports how many components are registered.
func (e *Engine) Components() int { return len(e.comps) }

// parked reports whether component i is parked until cycle at, i.e.
// whether a wake-heap entry (at, i) is live.
func (e *Engine) parked(i int, at uint64) bool {
	return e.active[i>>6]&(1<<uint(i&63)) == 0 && e.meta[i].wakeAt == at
}

// push adds a wakeup to the heap.
func (e *Engine) push(w wakeup) {
	h := append(e.heap, w) //ar:exempt(hotpath) the heap grows to the parked high-water mark, then reuses its capacity
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if h[p].at <= w.at {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = w
	e.heap = h
}

// pop removes the earliest wakeup from the heap.
func (e *Engine) pop() {
	h := e.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	j := 0
	for {
		c := 2*j + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].at < h[c].at {
			c++
		}
		if last.at <= h[c].at {
			break
		}
		h[j] = h[c]
		j = c
	}
	if n > 0 {
		h[j] = last
	}
	e.heap = h
}

// step advances the whole machine by one cycle, skipping components that
// report no work. It returns the earliest cycle at which any skipped
// component has future work; the return value exceeds e.cycle (post
// increment) only when no component ticked at all, in which case no
// simulated state changed this cycle and the clock may be advanced to the
// returned cycle directly.
//
//ar:hotpath
func (e *Engine) step() uint64 {
	if e.Lockstep {
		return e.stepLockstep()
	}
	c := e.cycle
	// Re-activate every parked component whose cycle has arrived.
	for len(e.heap) > 0 && e.heap[0].at <= c {
		w := e.heap[0]
		e.pop()
		if e.parked(w.idx, w.at) {
			e.active[w.idx>>6] |= 1 << uint(w.idx&63)
		}
	}
	next := Never
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
				if wk > c+1 {
					// Park the component: no polls until wk or a Wake. A
					// one-cycle wait is cheaper to re-poll than to park.
					e.active[w] &^= b
					e.meta[i].wakeAt = wk
					if wk != Never {
						e.push(wakeup{wk, i})
					}
				} else {
					next = wk
				}
				e.SkippedTicks++
				continue
			}
			comp.Tick(c)
			e.meta[i].ticks++
			ran = true
		}
	}
	e.cycle++
	if ran {
		return e.cycle
	}
	if len(e.heap) > 0 {
		// A stale top only makes the jump stop short at a cycle where
		// nothing happens; the next step jumps on.
		next = min(next, e.heap[0].at)
	}
	return next
}

// stepLockstep is the Lockstep step: every component ticks, in
// registration order, and NextWork is never called.
func (e *Engine) stepLockstep() uint64 {
	for i, comp := range e.comps {
		comp.Tick(e.cycle)
		e.meta[i].ticks++
	}
	e.cycle++
	return e.cycle
}

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
