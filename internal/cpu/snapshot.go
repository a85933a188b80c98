package cpu

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// FenceKind names the primitive a fenced core is blocked on, recorded at
// issue so checkpoint restore can re-arm the fence.
type FenceKind uint8

const (
	FenceNone FenceKind = iota
	FenceBarrier
	FenceGather
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

func encInst(e *sim.Enc, in *isa.Inst) {
	e.U32(uint32(in.Kind))
	e.U32(uint32(in.Class))
	e.U64(uint64(in.Addr))
	e.F64(in.Value)
	e.U64(uint64(in.Src1))
	e.U64(uint64(in.Src2))
	e.U64(uint64(in.Target))
	e.U32(uint32(in.Op))
	e.F64(in.Imm)
	e.Int(in.Threads)
	e.Int(in.Count)
}

// decInst reads an instruction back, failing the decode on any field value
// no trace can produce, so a corrupt pending instruction is a Restore error
// rather than a panic at its first dispatch.
func decInst(d *sim.Dec, in *isa.Inst) {
	kind, class := d.U32(), d.U32()
	in.Addr = mem.VAddr(d.U64())
	in.Value = d.F64()
	in.Src1 = mem.VAddr(d.U64())
	in.Src2 = mem.VAddr(d.U64())
	in.Target = mem.VAddr(d.U64())
	op := d.U32()
	in.Imm = d.F64()
	in.Threads = d.Int()
	in.Count = d.Int()
	if d.Err() != nil {
		return
	}
	switch {
	case kind > uint32(isa.KindBarrier):
		d.Fail("instruction kind %d out of range", kind)
	case class > uint32(isa.ClassFPMul):
		d.Fail("instruction compute class %d out of range", class)
	case op > uint32(isa.OpConstAssign):
		d.Fail("instruction update op %d out of range", op)
	case in.Threads < 0 || in.Threads > isa.MaxThreads:
		d.Fail("instruction thread count %d out of range [0,%d]", in.Threads, isa.MaxThreads)
	case in.Count < 0 || in.Count > isa.MaxCount:
		d.Fail("instruction element count %d out of range [0,%d]", in.Count, isa.MaxCount)
	}
	in.Kind, in.Class, in.Op = isa.Kind(kind), isa.CompClass(class), isa.ALUOp(op)
}

// Snapshot appends the core's quiescent-point state: replay cursor, ROB
// ring occupancy with completion flags, pending timed calls as (cycle,
// slot) pairs, fence provenance, stall bookkeeping, stats and IPC series.
// The fence's waiting registration at its barrier or coordinator flow is
// not serialized: RearmFence recreates it from the provenance (memory
// completions are impossible at quiescence). A core never waits on a
// refusing port here: a refusal needs an L1 miss or an MI entry in flight,
// and a quiescent machine has neither, so a refused core is a caller bug.
func (c *Core) Snapshot(e *sim.Enc) {
	if c.refused != skipNone {
		panic(fmt.Sprintf("cpu: snapshot of core %d waiting on a refusing port", c.ID))
	}
	e.Tag("core")
	e.Int(c.ID)
	e.Int(c.stream.Pos())
	e.Bool(c.hasPending)
	encInst(e, &c.pending)
	e.Bool(c.exhausted)
	e.U32(c.robHead)
	e.U32(c.robTail)
	for i := c.robHead; i != c.robTail; i++ {
		e.Bool(c.rob[i&c.robMask].done)
	}
	e.Int(c.calls.Len())
	for i := 0; i < c.calls.Len(); i++ {
		at, slot := c.calls.At(i)
		e.U64(at)
		e.Int(int(slot))
	}
	fk := c.fenceKind
	var ft mem.PAddr
	if !c.fenced {
		fk = FenceNone
	} else {
		ft = c.fenceTarget
	}
	e.Bool(c.fenced)
	e.U32(uint32(fk))
	e.U64(uint64(ft))
	e.U64(c.lastSeen)
	e.U32(uint32(c.skipReason))
	for _, p := range c.Stats.counters() {
		e.U64(*p)
	}
	c.IPC.Snapshot(e)
}

// Restore reads the state back into a freshly constructed core. Fences are
// NOT re-armed here — the system calls RearmFence afterwards, in core-ID
// order, once the barrier and coordinator have been restored.
func (c *Core) Restore(d *sim.Dec) {
	d.Tag("core")
	if id := d.Int(); d.Err() == nil && id != c.ID {
		d.Fail("core id mismatch: snapshot %d, machine %d", id, c.ID)
	}
	pos := d.Int()
	if d.Err() != nil {
		return
	}
	if pos < 0 || pos > c.stream.Len() {
		d.Fail("core %d stream position %d out of range [0,%d]", c.ID, pos, c.stream.Len())
		return
	}
	c.stream.SetPos(pos)
	c.hasPending = d.Bool()
	decInst(d, &c.pending)
	if d.Err() != nil {
		return
	}
	c.exhausted = d.Bool()
	c.robHead = d.U32()
	c.robTail = d.U32()
	if n := c.robTail - c.robHead; n > uint32(len(c.rob)) {
		d.Fail("core %d ROB occupancy %d exceeds capacity %d", c.ID, n, len(c.rob))
		return
	}
	for i := c.robHead; i != c.robTail; i++ {
		c.rob[i&c.robMask].done = d.Bool()
	}
	ncalls := d.Len(len(c.rob), "core timed calls")
	c.calls = sim.Timers[uint32]{}
	for i := 0; i < ncalls && d.Err() == nil; i++ {
		at := d.U64()
		idx := d.Int()
		if d.Err() != nil {
			return
		}
		if idx < 0 || idx >= len(c.rob) {
			d.Fail("core %d timed call slot %d out of range", c.ID, idx)
			return
		}
		c.calls.Add(at, uint32(idx))
	}
	c.fenced = d.Bool()
	c.fenceKind = FenceKind(d.U32())
	c.fenceTarget = mem.PAddr(d.U64())
	c.lastSeen = d.U64()
	c.skipReason = skipReason(d.U32())
	if c.skipReason > skipOffloadStall {
		d.Fail("core %d stall reason %d out of range", c.ID, c.skipReason)
	}
	for _, p := range c.Stats.counters() {
		*p = d.U64()
	}
	c.IPC.Restore(d)
	if d.Err() == nil && c.fenced {
		if c.fenceKind != FenceBarrier && c.fenceKind != FenceGather {
			d.Fail("core %d fenced with unknown fence kind %d", c.ID, c.fenceKind)
		}
		if c.robLen() == 0 {
			d.Fail("core %d fenced with an empty ROB", c.ID)
		}
	}
}

// RearmFence re-registers a restored fenced core with the primitive that
// releases it: a barrier fence re-arrives at the core's barrier, a gather
// fence re-attaches the core's thread id to its coordinator flow. Release
// order across cores is commutative — each release only touches its own
// core — so re-arming in core-ID order reproduces the original machine
// bit-identically. It returns false when a fence cannot be re-armed (a
// corrupt or inconsistent snapshot).
func (c *Core) RearmFence(coord *core.Coordinator) bool {
	if !c.fenced {
		return true
	}
	switch c.fenceKind {
	case FenceBarrier:
		if c.barrier == nil {
			return false
		}
		c.barrier.Arrive(c)
		return true
	case FenceGather:
		return coord != nil && coord.AttachGather(c.fenceTarget, c.ID)
	}
	return false
}
