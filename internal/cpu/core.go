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

// MemPort is the core's load/store path into its L1.
type MemPort interface {
	Access(addr mem.PAddr, write bool, cycle uint64, done func(cycle uint64)) bool
}

// OffloadPort is the core's Message Interface for the Update/Gather ISA
// extension (§3.1.2). Update is fire-and-forget once accepted; Gather's
// wake callback releases the issuing thread's fence.
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

// robEntry is one ROB slot. Slots live in a fixed ring allocated at core
// construction and are recycled in FIFO order, so the steady-state core
// allocates nothing per instruction. The completion callbacks are created
// lazily, once per slot, and reused for the slot's lifetime — they capture
// only the slot pointer (stable: the ring's backing array never moves), so
// handing them to the memory system or the offload port costs no
// allocation. A callback can never outlive its instruction: an entry is not
// retired until done, and done fires exactly once.
type robEntry struct {
	done bool

	memDone     func(cycle uint64) // load/store completion: done = true
	gatherWake  func(cycle uint64) // gather write-back: done = true, fence drops
	barrierWake func()             // barrier release: done = true, fence drops
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

	// Fence provenance, recorded at issue so a checkpoint can re-arm the
	// fence on restore: which primitive holds the thread and — for a
	// Gather — the flow target whose completion wake must re-attach.
	fenceKind   FenceKind
	fenceTarget mem.PAddr

	calls      []timedCall
	callsSpare []timedCall // recycled backing array for the calls queue

	// waker invalidates the engine's cached idle hint; completion
	// callbacks (the core's only external inputs) wake the core.
	waker *sim.Waker

	// Idle-skip bookkeeping: the last cycle NextWork or Tick observed and
	// the stall counter idle-skipped cycles must be credited to, so the
	// stall statistics stay bit-identical to the lockstep kernel.
	lastSeen   uint64
	skipReason skipReason

	Stats Stats
	IPC   *stats.IPCSeries
}

// timedCall is a pending fixed-latency completion (a compute retiring): at
// cycle `at`, entry e is marked done. Storing the target entry instead of a
// closure keeps the dispatch hot path allocation-free.
type timedCall struct {
	at uint64
	e  *robEntry
}

func (c *Core) robLen() int { return int(c.robTail - c.robHead) }

// skipReason records which per-cycle stall counter an idle-skipped stretch
// belongs to, so skipping Ticks leaves the counters bit-identical to the
// lockstep kernel.
type skipReason uint8

const (
	skipNone skipReason = iota
	skipFence
	skipROBFull
)

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

// SetWaker implements sim.WakeSetter.
func (c *Core) SetWaker(w *sim.Waker) { c.waker = w }

// Finished reports whether the thread has fully retired.
func (c *Core) Finished() bool {
	return c.exhausted && !c.hasPending && c.robLen() == 0
}

// NextWork implements sim.Idler. The core must tick whenever it can retire,
// fire a timed completion, or dispatch; it is quiescent while fenced, while
// the ROB is full with an incomplete head, or once its stream is drained.
// In the first two states the lockstep kernel's Tick would bump a per-cycle
// stall counter and nothing else, so skipping credits that counter here
// (and catchUp back-fills stretches the engine jumped over entirely),
// keeping the stall statistics bit-identical.
func (c *Core) NextWork(now uint64) uint64 {
	c.catchUp(now)
	if len(c.calls) > 0 {
		return now
	}
	if c.Finished() {
		c.skipReason = skipNone
		return sim.Never
	}
	if c.robLen() > 0 && c.rob[c.robHead&c.robMask].done {
		return now // retirement can progress
	}
	if c.fenced {
		c.skipReason = skipFence
		c.Stats.FenceCycles++
		return sim.Never
	}
	if c.robLen() >= c.cfg.ROBSize {
		c.skipReason = skipROBFull
		c.Stats.ROBFullCycles++
		return sim.Never
	}
	if c.exhausted && !c.hasPending {
		// Stream drained, ROB waiting on in-flight memory: nothing to do.
		c.skipReason = skipNone
		return sim.Never
	}
	return now // dispatch can make (or at least attempt) progress
}

// catchUp credits cycles the engine jumped over (no NextWork evaluation at
// all) to the stall counter recorded when the core last quiesced. A jump
// freezes the whole machine, so every jumped cycle had that same state.
func (c *Core) catchUp(now uint64) {
	if gap := now - c.lastSeen; gap > 1 {
		switch c.skipReason {
		case skipFence:
			c.Stats.FenceCycles += gap - 1
		case skipROBFull:
			c.Stats.ROBFullCycles += gap - 1
		}
	}
	c.lastSeen = now
}

// Tick advances the core one cycle: retire, then dispatch.
//
//ar:hotpath
func (c *Core) Tick(cycle uint64) {
	c.catchUp(cycle)
	if c.Finished() {
		return
	}
	if len(c.calls) > 0 {
		due := c.calls
		c.calls = c.callsSpare[:0]
		for _, t := range due {
			if t.at <= cycle {
				t.e.done = true
			} else {
				c.calls = append(c.calls, t) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
			}
		}
		c.callsSpare = due[:0]
	}
	c.retire(cycle)
	c.dispatch(cycle)
	if c.Finished() && c.Stats.DoneCycle == 0 {
		c.Stats.DoneCycle = cycle
	}
}

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

// issue places one instruction in the ROB and starts its execution. It
// reports false when a downstream structure refused the instruction.
//
// The prospective ROB slot is the ring's tail; its fields are initialized
// before any downstream call and the slot is committed (tail advanced) only
// on success. A refused instruction registers no callback anywhere, so the
// uncommitted slot simply gets reinitialized on the next attempt.
func (c *Core) issue(in *isa.Inst, cycle uint64) bool {
	e := &c.rob[c.robTail&c.robMask]
	e.done = false
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
		c.calls = append(c.calls, timedCall{at: cycle + lat, e: e}) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
		c.Stats.Computes++
	case isa.KindLoad, isa.KindStore, isa.KindAtomicAdd:
		pa := c.as.Translate(in.Addr)
		write := in.Kind != isa.KindLoad
		if e.memDone == nil {
			e.memDone = func(uint64) { //ar:exempt(hotpath) allocated once per inflight entry, cached in the entry and reused
				e.done = true
				c.waker.Wake()
			}
		}
		if !c.mem.Access(pa, write, cycle, e.memDone) {
			c.Stats.MemStalls++
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
			return false
		}
		e.done = true // fire-and-forget (§3.3: offload overlaps processing)
		c.Stats.Updates++
	case isa.KindGather:
		if e.gatherWake == nil {
			e.gatherWake = func(uint64) { //ar:exempt(hotpath) allocated once per inflight entry, cached in the entry and reused
				e.done = true
				c.fenced = false
				c.waker.Wake()
			}
		}
		cmd := core.GatherCmd{
			ThreadID: c.ID,
			Target:   c.as.Translate(in.Target),
			Threads:  in.Threads,
			Wake:     e.gatherWake,
		}
		if !c.offload.Gather(cmd, cycle) {
			c.Stats.OffloadStalls++
			return false
		}
		// Gather is a thread fence: later updates of a dependent flow must
		// not overtake the reduction write-back.
		c.fenced = true
		c.fenceKind = FenceGather
		c.fenceTarget = cmd.Target
		c.Stats.Gathers++
	case isa.KindBarrier:
		if c.barrier == nil {
			panic(fmt.Sprintf("cpu: core %d hit a barrier without one configured", c.ID))
		}
		if e.barrierWake == nil {
			e.barrierWake = func() { //ar:exempt(hotpath) allocated once per inflight entry, cached in the entry and reused
				e.done = true
				c.fenced = false
				c.waker.Wake()
			}
		}
		c.fenced = true
		c.fenceKind = FenceBarrier
		c.Stats.Barriers++
		c.barrier.Arrive(e.barrierWake)
	default:
		panic(fmt.Sprintf("cpu: unknown instruction kind %s", in.Kind))
	}
	c.robTail++
	return true
}

// Barrier is a reusable centralized thread barrier. Completion is deferred:
// when the n-th thread arrives the waiters move to a release list that
// Flush fires at the end of the cycle, so every waiter — regardless of its
// position in the tick order relative to the last arriver — resumes on the
// next cycle. The uniform one-cycle release latency models a real
// barrier's notification delay, and it makes the release cycle independent
// of where the last arriver sits in the tick order (DESIGN.md "Simulation
// kernel: tick order").
type Barrier struct {
	n         int
	arrived   int
	waiters   []func()
	release   []func()
	Crossings uint64
}

// NewBarrier creates a barrier over n threads.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Arrive registers a thread; when the n-th arrives the barrier resets and
// every waiter is queued for release at the next Flush.
func (b *Barrier) Arrive(wake func()) {
	b.arrived++
	b.waiters = append(b.waiters, wake) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
	if b.arrived == b.n {
		b.release = append(b.release, b.waiters...) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
		b.arrived = 0
		b.waiters = b.waiters[:0]
		b.Crossings++
	}
}

// Pending reports whether a completed crossing awaits its Flush.
func (b *Barrier) Pending() bool { return len(b.release) > 0 }

// Flush fires the queued release wakes of a completed crossing. The system
// calls it once per cycle after every component has ticked.
func (b *Barrier) Flush() {
	for i, w := range b.release {
		b.release[i] = nil
		w()
	}
	b.release = b.release[:0]
}
