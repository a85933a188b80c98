package core

import (
	"sort"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
)

// Checkpoint support. Both the ARE and the coordinator snapshot at system
// quiescence with their transient machinery empty; what survives is flow
// state. A quiescent ARE may hold live Active Flow Table entries (trees
// built by updates whose gather wave has not fired), but every such entry
// is provably pre-gather: Gflag and gatherReplSent are set together in
// handleGatherReq, pendingChildren>0 requires an in-flight GatherResp, and
// a complete entry is released at emit time — so with the network drained
// and the input queue empty the private fields are all zero/false and only
// the architectural Table 3.1 fields need encoding. The coordinator's
// flows map is likewise mid-construction only: gatherSent false,
// pendingTree zero, and its waiting thread ids are re-attached from the
// gather-fenced cores (RearmFence) rather than serialized.

// SnapshotReady reports whether the engine holds only checkpointable
// state: every transient queue empty and every live flow pre-gather.
func (e *Engine) SnapshotReady() bool {
	if e.inQ.Len() > 0 || len(e.byTag) > 0 || len(e.sendQ) > 0 || e.readyQ.Len() > 0 || e.fwdQ.Len() > 0 {
		return false
	}
	for i := range e.outQ {
		if e.outQ[i].Len() > 0 {
			return false
		}
	}
	//ar:exempt(determinism) order-independent boolean reduction: the predicate ORs over every entry and mutates nothing
	for _, fe := range e.Flows.entries {
		if fe.Gflag || fe.gatherReplSent || fe.completionQd || fe.pendingChildren != 0 {
			return false
		}
	}
	return true
}

// Snapshot implements sim.Snapshotter for a quiescent ARE.
func (e *Engine) Snapshot(enc *sim.Enc) {
	enc.Tag("are")
	enc.Int(e.CubeID)
	enc.U64(e.nextTag)
	for _, p := range e.Stats.counters() {
		enc.U64(*p)
	}
	enc.Int(e.Stats.PeakOperandInUse)
	enc.U64(e.Breakdown.Count)
	enc.U64(e.Breakdown.Req)
	enc.U64(e.Breakdown.Stall)
	enc.U64(e.Breakdown.Resp)

	t := e.Flows
	enc.Int(t.Peak)
	enc.U64(t.Registered)
	keys := make([]network.FlowKey, 0, len(t.entries))
	for k := range t.entries { //ar:exempt(determinism) key collection only; the slice is sorted before use
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Flow != keys[j].Flow {
			return keys[i].Flow < keys[j].Flow
		}
		return keys[i].Tree < keys[j].Tree
	})
	enc.Int(len(keys))
	for _, k := range keys {
		fe := t.entries[k]
		enc.U64(k.Flow)
		enc.U32(uint32(k.Tree))
		enc.U32(uint32(fe.Opcode))
		enc.F64(fe.Result)
		enc.U64(fe.ReqCount)
		enc.U64(fe.RespCnt)
		enc.Int(fe.Parent)
		enc.Int(len(fe.Children))
		for _, c := range fe.Children {
			enc.Int(c)
		}
	}
}

// Restore implements sim.Snapshotter for a freshly constructed ARE. The
// restoring machine's flow-table capacity may differ from the source's
// (the MaxFlows ablation forks); restore fails if the live entries do not
// fit — the sweep layer additionally requires the source's Peak to fit so
// the fork cannot diverge from a cold run.
func (e *Engine) Restore(d *sim.Dec) {
	d.Tag("are")
	if id := d.Int(); d.Err() == nil && id != e.CubeID {
		d.Fail("are cube id mismatch: snapshot %d, machine %d", id, e.CubeID)
	}
	e.nextTag = d.U64()
	for _, p := range e.Stats.counters() {
		*p = d.U64()
	}
	e.Stats.PeakOperandInUse = d.Int()
	e.Breakdown.Count = d.U64()
	e.Breakdown.Req = d.U64()
	e.Breakdown.Stall = d.U64()
	e.Breakdown.Resp = d.U64()

	t := e.Flows
	t.Peak = d.Int()
	t.Registered = d.U64()
	n := d.Len(1<<20, "are flow entries")
	if d.Err() != nil {
		return
	}
	if n > t.cap {
		d.Fail("are cube %d: %d live flows exceed table capacity %d", e.CubeID, n, t.cap)
		return
	}
	for i := 0; i < n; i++ {
		key := network.FlowKey{Flow: d.U64(), Tree: uint8(d.U32())}
		fe := &FlowEntry{
			Key:      key,
			Opcode:   isa.ALUOp(d.U32()),
			Result:   d.F64(),
			ReqCount: d.U64(),
			RespCnt:  d.U64(),
			Parent:   d.Int(),
		}
		nc := d.Len(1<<10, "are flow children")
		for j := 0; j < nc && d.Err() == nil; j++ {
			fe.Children = append(fe.Children, d.Int())
		}
		if d.Err() != nil {
			return
		}
		if _, dup := t.entries[key]; dup {
			d.Fail("are cube %d: duplicate flow key %+v", e.CubeID, key)
			return
		}
		t.entries[key] = fe
	}
}

// SnapshotReady reports whether the coordinator holds only checkpointable
// state: ports drained, no outstanding active-store acks, and every live
// flow still gathering arrivals (its wave not yet fired).
func (c *Coordinator) SnapshotReady() bool {
	if len(c.pendingAcks) > 0 {
		return false
	}
	for port := range c.queues {
		if c.queues[port].Len() > 0 {
			return false
		}
	}
	//ar:exempt(determinism) order-independent boolean reduction: the predicate ORs over every flow and mutates nothing
	for _, f := range c.flows {
		if f.gatherSent || f.pendingTree != 0 {
			return false
		}
	}
	return true
}

// Snapshot implements sim.Snapshotter for a quiescent coordinator.
func (c *Coordinator) Snapshot(e *sim.Enc) {
	e.Tag("coord")
	e.U64(c.nextTag)
	for _, p := range c.Stats.counters() {
		e.U64(*p)
	}
	e.Int(len(c.ports))
	targets := make([]mem.PAddr, 0, len(c.flows))
	for t := range c.flows { //ar:exempt(determinism) key collection only; the slice is sorted before use
		targets = append(targets, t)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	e.Int(len(targets))
	for _, t := range targets {
		f := c.flows[t]
		e.U64(uint64(t))
		e.U32(uint32(f.op))
		for _, live := range f.trees {
			e.Bool(live)
		}
		e.Int(f.gathersSeen)
		e.Int(f.threads)
		e.F64(f.partial)
	}
}

// Restore implements sim.Snapshotter for a freshly constructed
// coordinator. Waiting thread ids are not decoded: the system re-attaches
// them by calling RearmFence on each gather-fenced core, which lands in
// AttachGather. Re-attachment in core-ID order is bit-identity-safe
// because each release only touches its own core.
func (c *Coordinator) Restore(d *sim.Dec) {
	d.Tag("coord")
	c.nextTag = d.U64()
	for _, p := range c.Stats.counters() {
		*p = d.U64()
	}
	if np := d.Int(); d.Err() == nil && np != len(c.ports) {
		d.Fail("coordinator port count mismatch: snapshot %d, machine %d", np, len(c.ports))
		return
	}
	n := d.Len(1<<20, "coordinator flows")
	for i := 0; i < n && d.Err() == nil; i++ {
		f := &coordFlow{
			target: mem.PAddr(d.U64()),
			op:     isa.ALUOp(d.U32()),
			trees:  make([]bool, len(c.ports)),
		}
		for j := range f.trees {
			f.trees[j] = d.Bool()
		}
		f.gathersSeen = d.Int()
		f.threads = d.Int()
		f.partial = d.F64()
		if d.Err() != nil {
			return
		}
		if f.gathersSeen < 0 || (f.threads > 0 && f.gathersSeen >= f.threads) ||
			(f.threads <= 0 && f.gathersSeen != 0) {
			d.Fail("coordinator flow %#x: inconsistent gather barrier %d/%d",
				uint64(f.target), f.gathersSeen, f.threads)
			return
		}
		if _, dup := c.flows[f.target]; dup {
			d.Fail("coordinator flow %#x decoded twice", uint64(f.target))
			return
		}
		c.flows[f.target] = f
	}
}

// AttachGather re-registers restored gather-fenced thread tid with its
// flow's thread barrier; it reports false when the flow does not exist (a
// corrupt or inconsistent snapshot).
func (c *Coordinator) AttachGather(target mem.PAddr, tid int) bool {
	f, ok := c.flows[target]
	if !ok {
		return false
	}
	f.waiting = append(f.waiting, tid)
	return true
}
