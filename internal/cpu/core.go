// Package cpu models the host side of Fig 3.1: trace-driven out-of-order
// cores (ROB occupancy, issue/commit width, memory-port limits) plus the
// thread-synchronization primitives the workloads need (barriers, the
// Gather fence).
//
// Substitution note (DESIGN.md): the thesis drives McSimA+ with
// Pin-instrumented binaries, resolving register dependences exactly. This
// model approximates ILP with ROB capacity and issue/commit widths over the
// workload's instruction mix; the workloads are memory-bound, so timing
// fidelity is dominated by the cache/memory system, which is modeled in
// detail.
package cpu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config sizes one out-of-order core (Table 4.1: 16 cores @2 GHz, 8-wide,
// ROB 64).
type Config struct {
	ROBSize     int
	IssueWidth  int
	CommitWidth int
	MemPorts    int // L1 accesses issued per cycle
	IntLat      uint64
	FPLat       uint64
	FPMulLat    uint64
}

// DefaultConfig returns the Table 4.1 core.
func DefaultConfig() Config {
	return Config{
		ROBSize:     64,
		IssueWidth:  8,
		CommitWidth: 8,
		MemPorts:    2,
		IntLat:      1,
		FPLat:       3,
		FPMulLat:    4,
	}
}

// MemPort is the core's load/store path into its L1. token is the access's
// ROB slot; the memory side completes the access by passing it to MemDone.
type MemPort interface {
	Access(addr mem.PAddr, write bool, cycle uint64, token uint64) bool
}

// OffloadPort is the core's Message Interface for the Update/Gather ISA
// extension (§3.1.2). Update is fire-and-forget once accepted; an accepted
// Gather fences the issuing thread until the flow's write-back is
// acknowledged and the coordinator's gather-done hook calls ReleaseFence.
type OffloadPort interface {
	Update(cmd core.UpdateCmd, cycle uint64) bool
	Gather(cmd core.GatherCmd, cycle uint64) bool
}

// Stats counts per-core activity.
type Stats struct {
	Retired       uint64
	Loads         uint64
	Stores        uint64
	Updates       uint64
	Gathers       uint64
	Computes      uint64
	Barriers      uint64
	ROBFullCycles uint64
	OffloadStalls uint64
	MemStalls     uint64
	FenceCycles   uint64
	DoneCycle     uint64
}

// counters lists the Stats fields in snapshot order.
func (s *Stats) counters() []*uint64 {
	return []*uint64{&s.Retired, &s.Loads, &s.Stores, &s.Updates, &s.Gathers,
		&s.Computes, &s.Barriers, &s.ROBFullCycles, &s.OffloadStalls, &s.MemStalls,
		&s.FenceCycles, &s.DoneCycle}
}

// robEntry is one ROB slot. Slots live in a fixed ring allocated at core
// construction and are recycled in FIFO order, so the steady-state core
// allocates nothing per instruction. A completion names its slot by ring
// index (MemDone) or, for a fence, by position (ReleaseFence); a slot is not
// retired until done, so its index cannot be reused while a completion for
// it is outstanding.
type robEntry struct {
	done bool
}

// Core executes one thread's instruction stream.
type Core struct {
	ID  int
	cfg Config

	stream     isa.Stream
	pending    isa.Inst // dispatch-blocked instruction (valid iff hasPending)
	hasPending bool
	exhausted  bool

	// ROB ring: fixed power-of-two capacity >= cfg.ROBSize; robHead/robTail
	// wrap via robMask.
	rob     []robEntry
	robMask uint32
	robHead uint32
	robTail uint32

	mem     MemPort
	offload OffloadPort
	store   *mem.Store
	as      *mem.AddrSpace
	barrier *Barrier

	fenced bool // Gather or barrier outstanding: dispatch stops

	calls sim.Timers[uint32] // ROB slots whose compute completes at a cycle

	// waker invalidates the engine's cached idle hint; MemDone,
	// ReleaseFence and PortReady (the core's only external inputs) wake
	// the core.
	waker *sim.Waker

	// stall credits the cycles NextWork skips while the core waits, so
	// the stall statistics stay bit-identical to the lockstep kernel.
	stall sim.Stall
	// refused is the stall counter of the port that refused the pending
	// instruction's last issue attempt (&Stats.MemStalls or
	// &Stats.OffloadStalls), until that port calls PortReady; nil
	// otherwise.
	refused *uint64

	Stats Stats
	IPC   *stats.IPCSeries
}

func (c *Core) robLen() int { return int(c.robTail - c.robHead) }

// NewCore builds core id over the given stream and ports. barrier may be
// nil when the workload never synchronizes.
func NewCore(id int, cfg Config, stream isa.Stream, memPort MemPort, offload OffloadPort,
	store *mem.Store, as *mem.AddrSpace, barrier *Barrier) *Core {
	robCap := 1
	for robCap < cfg.ROBSize {
		robCap <<= 1
	}
	return &Core{
		ID:      id,
		cfg:     cfg,
		stream:  stream,
		rob:     make([]robEntry, robCap),
		robMask: uint32(robCap - 1),
		mem:     memPort,
		offload: offload,
		store:   store,
		as:      as,
		barrier: barrier,
		IPC:     stats.NewIPCSeries(1 << 14),
	}
}

// SetWaker implements sim.Component.
func (c *Core) SetWaker(w *sim.Waker) { c.waker = w }

// Finished reports whether the thread has fully retired.
func (c *Core) Finished() bool {
	return c.exhausted && !c.hasPending && c.robLen() == 0
}

// Fenced reports whether the core waits on a Gather or a barrier.
func (c *Core) Fenced() bool { return c.fenced }

// NextWork implements sim.Component. The core must tick whenever it can
// retire, fire a due timed completion, or attempt a dispatch; otherwise its
// next work is its earliest timed completion (Never without one). It waits
// while fenced, while the ROB is full with an incomplete head, once its
// stream is drained, and while the port that refused its pending
// instruction has not called PortReady. In all but the drained state the
// lockstep kernel's Tick would bump a per-cycle stall counter and nothing
// else, so the core's sim.Stall credits that counter for the polled cycle
// and for every cycle the core was not polled, keeping the stall
// statistics bit-identical.
func (c *Core) NextWork(now uint64) uint64 {
	c.stall.Poll(now)
	next := c.calls.Next(now)
	if next == now {
		return now
	}
	if c.Finished() {
		return sim.Never
	}
	if c.robLen() > 0 && c.rob[c.robHead&c.robMask].done {
		return now // retirement can progress
	}
	switch {
	case c.fenced:
		c.stall.Wait(&c.Stats.FenceCycles)
	case c.robLen() >= c.cfg.ROBSize:
		c.stall.Wait(&c.Stats.ROBFullCycles)
	case c.exhausted && !c.hasPending:
		// Stream drained, ROB waiting on in-flight memory: nothing to do.
	case c.refused != nil:
		c.stall.Wait(c.refused)
	default:
		return now // dispatch can make (or at least attempt) progress
	}
	return next
}

// Tick advances the core one cycle: retire, then dispatch.
//
//ar:hotpath
func (c *Core) Tick(cycle uint64) {
	if c.Finished() {
		return
	}
	c.calls.Fire(cycle, c.complete)
	c.retire(cycle)
	c.dispatch(cycle)
	if c.Finished() && c.Stats.DoneCycle == 0 {
		c.Stats.DoneCycle = cycle
	}
}

// complete marks a compute's ROB slot done when its latency elapses.
func (c *Core) complete(slot uint32, _ uint64) { c.rob[slot].done = true }

// retire commits completed instructions in order.
func (c *Core) retire(cycle uint64) {
	n := 0
	for n < c.cfg.CommitWidth && c.robLen() > 0 && c.rob[c.robHead&c.robMask].done {
		c.robHead++
		c.Stats.Retired++
		n++
	}
	if n > 0 {
		c.IPC.Retire(uint64(n), cycle)
	}
}

// applyEffect applies an instruction's functional memory effect at dispatch
// time. Dispatch is in program order, so a store's value is visible in the
// backing store before any later Update of the same thread is offloaded —
// the ordering the fire-and-forget offload semantics rely on (a store still
// pays its full coherence timing separately).
func (c *Core) applyEffect(in *isa.Inst) {
	switch in.Kind {
	case isa.KindStore:
		c.store.WriteF64(c.as.Translate(in.Addr), in.Value)
	case isa.KindAtomicAdd:
		pa := c.as.Translate(in.Addr)
		c.store.WriteF64(pa, c.store.ReadF64(pa)+in.Value)
	}
}

// dispatch fills the ROB from the instruction stream.
func (c *Core) dispatch(cycle uint64) {
	memIssued := 0
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.fenced {
			c.Stats.FenceCycles++
			return
		}
		if c.robLen() >= c.cfg.ROBSize {
			c.Stats.ROBFullCycles++
			return
		}
		in, ok := c.nextInst()
		if !ok {
			return
		}
		if (in.Kind == isa.KindLoad || in.Kind == isa.KindStore || in.Kind == isa.KindAtomicAdd) &&
			memIssued >= c.cfg.MemPorts {
			c.stash(in)
			return
		}
		if !c.issue(in, cycle) {
			c.stash(in)
			return
		}
		if in.Kind == isa.KindLoad || in.Kind == isa.KindStore || in.Kind == isa.KindAtomicAdd {
			memIssued++
		}
	}
}

// nextInst returns a pointer to the next instruction to dispatch. The
// pointee lives either in the core (the pending stash) or in the stream's
// decode scratch; it is valid until the next nextInst call, which is long
// enough for the dispatch loop that consumes it immediately.
func (c *Core) nextInst() (*isa.Inst, bool) {
	if c.hasPending {
		c.hasPending = false
		return &c.pending, true
	}
	if c.exhausted {
		return nil, false
	}
	in, ok := c.stream.NextPtr()
	if !ok {
		c.exhausted = true
		return nil, false
	}
	return in, true
}

func (c *Core) stash(in *isa.Inst) {
	if c.hasPending {
		panic("cpu: dispatch stash overwrite")
	}
	c.pending = *in
	c.hasPending = true
}

// MemDone completes the load or store in ROB slot token, the token the core
// passed to MemPort.Access.
func (c *Core) MemDone(token uint64) {
	c.rob[token].done = true
	c.waker.Wake()
}

// PortReady tells the core that the port which refused its pending
// instruction may accept it now: the L1 calls it when a fill frees an
// MSHR, the MI when it drains an entry. The core retries on its next slot,
// the cycle the lockstep kernel's retry would first succeed.
func (c *Core) PortReady() {
	if c.refused != nil {
		c.refused = nil
		c.waker.Wake()
	}
}

// ReleaseFence completes the instruction holding the core's fence (a Gather
// or a barrier), drops the fence and wakes the core. While fenced, dispatch
// has stopped, so the fencing instruction is the ROB tail's predecessor.
func (c *Core) ReleaseFence() {
	if !c.fenced {
		panic(fmt.Sprintf("cpu: fence release for unfenced core %d", c.ID))
	}
	c.rob[(c.robTail-1)&c.robMask].done = true
	c.fenced = false
	c.waker.Wake()
}

// issue places one instruction in the ROB and starts its execution. It
// reports false when a downstream structure refused the instruction.
//
// The prospective ROB slot is the ring's tail; its flag is cleared before
// any downstream call and the slot is committed (tail advanced) only on
// success. A refused instruction leaves no token anywhere, so the
// uncommitted slot simply gets reinitialized on the next attempt.
func (c *Core) issue(in *isa.Inst, cycle uint64) bool {
	slot := c.robTail & c.robMask
	e := &c.rob[slot]
	e.done = false
	c.refused = nil
	switch in.Kind {
	case isa.KindCompute:
		var lat uint64
		switch in.Class {
		case isa.ClassInt:
			lat = c.cfg.IntLat
		case isa.ClassFP:
			lat = c.cfg.FPLat
		default:
			lat = c.cfg.FPMulLat
		}
		c.calls.Add(cycle+lat, slot)
		c.Stats.Computes++
	case isa.KindLoad, isa.KindStore, isa.KindAtomicAdd:
		pa := c.as.Translate(in.Addr)
		write := in.Kind != isa.KindLoad
		if !c.mem.Access(pa, write, cycle, uint64(slot)) {
			c.Stats.MemStalls++
			c.refused = &c.Stats.MemStalls
			return false
		}
		c.applyEffect(in)
		if write {
			c.Stats.Stores++
		} else {
			c.Stats.Loads++
		}
	case isa.KindUpdate:
		cmd := core.UpdateCmd{
			ThreadID: c.ID,
			Op:       in.Op,
			Target:   c.as.Translate(in.Target),
			Imm:      in.Imm,
			Count:    in.Count,
		}
		if in.Src1 != 0 {
			cmd.Src1 = c.as.Translate(in.Src1)
		}
		if in.Src2 != 0 {
			cmd.Src2 = c.as.Translate(in.Src2)
		}
		if !c.offload.Update(cmd, cycle) {
			c.Stats.OffloadStalls++
			c.refused = &c.Stats.OffloadStalls
			return false
		}
		e.done = true // fire-and-forget (§3.3: offload overlaps processing)
		c.Stats.Updates++
	case isa.KindGather:
		cmd := core.GatherCmd{
			ThreadID: c.ID,
			Target:   c.as.Translate(in.Target),
			Threads:  in.Threads,
		}
		if !c.offload.Gather(cmd, cycle) {
			c.Stats.OffloadStalls++
			c.refused = &c.Stats.OffloadStalls
			return false
		}
		// Gather is a thread fence: later updates of a dependent flow must
		// not overtake the reduction write-back.
		c.fenced = true
		c.Stats.Gathers++
	case isa.KindBarrier:
		if c.barrier == nil {
			panic(fmt.Sprintf("cpu: core %d hit a barrier without one configured", c.ID))
		}
		c.fenced = true
		c.Stats.Barriers++
		c.barrier.Arrive(c.ID)
	default:
		panic(fmt.Sprintf("cpu: unknown instruction kind %s", in.Kind))
	}
	c.robTail++
	return true
}

// Barrier is a reusable centralized thread barrier and a sim.Component.
// Completion is deferred: when the n-th thread arrives the waiting thread
// ids move to a release list and the barrier wakes itself; registered last
// in the tick order, it ticks at the end of that same cycle and passes
// them to its done hook, which releases their fences, so every waiter —
// regardless of its position in the tick order relative to the last
// arriver — resumes on the next cycle. The uniform one-cycle release
// latency models a real barrier's notification delay, and it makes the
// release cycle independent of where the last arriver sits in the tick
// order (DESIGN.md "Simulation kernel: tick order").
type Barrier struct {
	n         int
	waiters   []int // thread ids of the crossing in progress, in arrival order
	release   []int
	done      func(tid int)
	waker     *sim.Waker
	Crossings uint64
}

// NewBarrier creates a barrier over n threads; done receives the id of
// every waiter once its crossing completes.
func NewBarrier(n int, done func(tid int)) *Barrier { return &Barrier{n: n, done: done} }

// SetWaker implements sim.Component: a completed crossing is the barrier's
// only input.
func (b *Barrier) SetWaker(w *sim.Waker) { b.waker = w }

// Arrive registers barrier-fenced thread tid; when the n-th arrives the
// barrier resets and every waiter is queued for release at the barrier's
// next Tick.
func (b *Barrier) Arrive(tid int) {
	b.waiters = append(b.waiters, tid) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
	if len(b.waiters) == b.n {
		b.release = append(b.release, b.waiters...) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
		b.waiters = b.waiters[:0]
		b.Crossings++
		b.waker.Wake()
	}
}

// Waiting returns the thread ids of the crossing in progress, in arrival
// order. The slice is the barrier's own.
func (b *Barrier) Waiting() []int { return b.waiters }

// Pending reports whether a completed crossing awaits its release.
func (b *Barrier) Pending() bool { return len(b.release) > 0 }

// NextWork implements sim.Component: the barrier has work only while a
// completed crossing awaits its release.
func (b *Barrier) NextWork(now uint64) uint64 {
	if b.Pending() {
		return now
	}
	return sim.Never
}

// Tick releases the fences of a completed crossing's threads.
func (b *Barrier) Tick(uint64) {
	for _, tid := range b.release {
		b.done(tid)
	}
	b.release = b.release[:0]
}
