package cpu

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sim"
)

// Snapshotable reports whether the core's state is capturable: every
// in-flight ROB entry must be accounted for by a timed call or the fence
// (an outstanding memory access would hold the core's token inside the
// cache hierarchy, which the system-level quiescence predicate rules out
// before asking). The stream needs no check: an isa.Stream replays a
// pre-built trace, so its cursor is its whole state.
func (c *Core) Snapshotable() bool {
	pend := 0
	for i := c.robHead; i != c.robTail; i++ {
		if !c.rob[i&c.robMask].done {
			pend++
		}
	}
	if c.fenced {
		pend--
	}
	return pend == c.calls.Len()
}

// instState streams an instruction. Decoding fails on any field value no
// trace can produce, so a corrupt pending instruction is a Restore error
// rather than a panic at its first dispatch.
func instState(s *sim.Stream, in *isa.Inst) {
	sim.U32As(s, &in.Kind)
	sim.U32As(s, &in.Class)
	sim.U64As(s, &in.Addr)
	s.F64(&in.Value)
	sim.U64As(s, &in.Src1)
	sim.U64As(s, &in.Src2)
	sim.U64As(s, &in.Target)
	sim.U32As(s, &in.Op)
	s.F64(&in.Imm)
	s.Int(&in.Threads)
	s.Int(&in.Count)
	switch {
	case in.Kind > isa.KindBarrier:
		s.Fail("instruction kind %d out of range", in.Kind)
	case in.Class > isa.ClassFPMul:
		s.Fail("instruction compute class %d out of range", in.Class)
	case in.Op > isa.OpConstAssign:
		s.Fail("instruction update op %d out of range", in.Op)
	case in.Threads < 0 || in.Threads > isa.MaxThreads:
		s.Fail("instruction thread count %d out of range [0,%d]", in.Threads, isa.MaxThreads)
	case in.Count < 0 || in.Count > isa.MaxCount:
		s.Fail("instruction element count %d out of range [0,%d]", in.Count, isa.MaxCount)
	}
}

// Settle credits the stall cycles the core has not been polled for, up to
// cycle now, so its statistics read as a lockstep run's stopped at now.
// The stall clock itself is scheduler state and is not serialized: a
// restored core starts with a zero clock, which credits nothing before its
// first poll.
func (c *Core) Settle(now uint64) { c.stall.Settle(now) }

// State streams the core's quiescent-point state: replay cursor, ROB ring
// occupancy with completion flags, pending timed calls as (cycle, slot)
// pairs, the fence flag, stats (settled to the snapshot cycle, see Settle)
// and IPC series. Which barrier or coordinator flow holds a fenced core is
// that primitive's state: it lists the thread id in its own section. A
// core never waits on a refusing port here: a refusal needs an L1 miss or
// an MI entry in flight, and a quiescent machine has neither, so encoding
// a refused core is a caller bug.
func (c *Core) State(s *sim.Stream) {
	if !s.Decoding() && c.refused != nil {
		panic(fmt.Sprintf("cpu: snapshot of core %d waiting on a refusing port", c.ID))
	}
	s.Tag("core")
	s.Match(c.ID, "core id")
	pos := c.stream.Pos()
	if s.Int(&pos); pos < 0 || pos > c.stream.Len() {
		s.Fail("core %d stream position %d out of range [0,%d]", c.ID, pos, c.stream.Len())
		return
	} else if s.Decoding() {
		c.stream.SetPos(pos)
	}
	s.Bool(&c.hasPending)
	if instState(s, &c.pending); s.Err() != nil {
		return
	}
	s.Bool(&c.exhausted)
	sim.U32As(s, &c.robHead)
	sim.U32As(s, &c.robTail)
	if n := c.robTail - c.robHead; n > uint32(len(c.rob)) {
		s.Fail("core %d ROB occupancy %d exceeds capacity %d", c.ID, n, len(c.rob))
		return
	}
	for i := c.robHead; i != c.robTail; i++ {
		s.Bool(&c.rob[i&c.robMask].done)
	}
	ncalls := c.calls.Len()
	s.Len(&ncalls, len(c.rob), "core timed calls")
	for i := 0; i < ncalls && s.Err() == nil; i++ {
		var at uint64
		var slot uint32
		if !s.Decoding() {
			at, slot = c.calls.At(i)
		}
		s.U64(&at)
		if sim.U64As(s, &slot); slot >= uint32(len(c.rob)) {
			s.Fail("core %d timed call slot %d out of range", c.ID, slot)
		} else if s.Decoding() {
			c.calls.Add(at, slot)
		}
	}
	s.Bool(&c.fenced)
	s.U64s(c.Stats.counters())
	c.IPC.State(s)
	if c.fenced && c.robLen() == 0 {
		s.Fail("core %d fenced with an empty ROB", c.ID)
	}
}

// State streams the barrier's section: its crossing count, then the
// thread ids of the crossing in progress in arrival order. A quiescent
// machine has no completed crossing awaiting release (Pending is the
// barrier's snapshot-busy probe), so fewer than n threads wait. Which ids
// may wait is the system's cross-check against the fenced cores.
func (b *Barrier) State(s *sim.Stream) {
	s.Tag("barrier")
	s.U64(&b.Crossings)
	n := len(b.waiters)
	if s.Len(&n, b.n-1, "barrier waiters"); s.Decoding() {
		b.waiters = make([]int, n, b.n)
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		s.Int(&b.waiters[i])
	}
}
