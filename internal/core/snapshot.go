package core

import (
	"cmp"
	"maps"
	"slices"

	"repro/internal/isa"
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
// flows map is likewise mid-construction only: gatherSent false and
// pendingTree zero; each flow lists the thread ids fenced on it. Tag
// counters are not serialized: every table that holds a live tag (byTag,
// pendingAcks) is empty at quiescence, and a tag is only an identity, so a
// restored engine or coordinator that restarts its counter at zero behaves
// identically.

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

// State streams a quiescent ARE's section. The restoring machine's
// flow-table capacity may differ from the source's (the MaxFlows ablation
// forks); decoding fails if the live entries do not fit — the sweep layer
// additionally requires the source's Peak to fit so the fork cannot
// diverge from a cold run.
func (e *Engine) State(s *sim.Stream) {
	s.Tag("are")
	s.Match(e.CubeID, "are cube id")
	s.U64s(e.Stats.counters())
	s.Int(&e.Stats.PeakOperandInUse)
	s.U64(&e.Breakdown.Count)
	s.U64(&e.Breakdown.Req)
	s.U64(&e.Breakdown.Stall)
	s.U64(&e.Breakdown.Resp)

	t := e.Flows
	s.Int(&t.Peak)
	s.U64(&t.Registered)
	var live []*FlowEntry
	if !s.Decoding() && len(t.entries) > 0 {
		live = slices.SortedFunc(maps.Values(t.entries), func(a, b *FlowEntry) int {
			return cmp.Or(cmp.Compare(a.Key.Flow, b.Key.Flow), cmp.Compare(a.Key.Tree, b.Key.Tree))
		})
	}
	n := len(live)
	if s.Len(&n, 1<<20, "are flow entries"); n > t.cap {
		s.Fail("are cube %d: %d live flows exceed table capacity %d", e.CubeID, n, t.cap)
		return
	} else if s.Decoding() {
		live = make([]*FlowEntry, n)
	}
	nodes := e.cube.Nodes()
	for i := 0; i < n && s.Err() == nil; i++ {
		if s.Decoding() {
			live[i] = &FlowEntry{}
		}
		fe := live[i]
		s.U64(&fe.Key.Flow)
		sim.U32As(s, &fe.Key.Tree)
		sim.U32As(s, &fe.Opcode)
		s.F64(&fe.Result)
		s.U64(&fe.ReqCount)
		s.U64(&fe.RespCnt)
		s.Int(&fe.Parent)
		nc := len(fe.Children)
		s.Len(&nc, 1<<10, "are flow children")
		for j := 0; j < nc && s.Err() == nil; j++ {
			if s.Decoding() {
				fe.Children = append(fe.Children, 0)
			}
			if s.Int(&fe.Children[j]); fe.Children[j] < 0 || fe.Children[j] >= nodes {
				s.Fail("are cube %d: flow child node %d out of range [0,%d)", e.CubeID, fe.Children[j], nodes)
			}
		}
		switch {
		case s.Err() != nil:
			return
		case fe.Opcode > isa.OpConstAssign:
			s.Fail("are cube %d: flow opcode %d out of range", e.CubeID, fe.Opcode)
		case fe.Parent < 0 || fe.Parent >= nodes:
			s.Fail("are cube %d: flow parent node %d out of range [0,%d)", e.CubeID, fe.Parent, nodes)
		case !s.Decoding(): // encoding: the entry stays where it is
		case t.entries[fe.Key] != nil:
			s.Fail("are cube %d: duplicate flow key %+v", e.CubeID, fe.Key)
		default:
			t.entries[fe.Key] = fe
		}
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

// State streams a quiescent coordinator's section: its counters, then each
// live flow in target order with the thread ids waiting on it in arrival
// order. A flow's waiters are fewer than its thread count, or it would have
// fired its gather wave; which ids may wait is the system's cross-check
// against the fenced cores.
func (c *Coordinator) State(s *sim.Stream) {
	s.Tag("coord")
	s.U64s(c.Stats.counters())
	if !s.Match(len(c.ports), "coordinator port count") {
		return
	}
	var live []*coordFlow
	if !s.Decoding() && len(c.flows) > 0 {
		live = slices.SortedFunc(maps.Values(c.flows), func(a, b *coordFlow) int { return cmp.Compare(a.target, b.target) })
	}
	n := len(live)
	if s.Len(&n, 1<<20, "coordinator flows"); s.Decoding() {
		live = make([]*coordFlow, n)
	}
	for i := 0; i < n && s.Err() == nil; i++ {
		if s.Decoding() {
			live[i] = &coordFlow{trees: make([]bool, len(c.ports))}
		}
		f := live[i]
		sim.U64As(s, &f.target)
		sim.U32As(s, &f.op)
		for j := range f.trees {
			s.Bool(&f.trees[j])
		}
		nw := len(f.waiting)
		if s.Len(&nw, isa.MaxThreads, "coordinator flow waiters"); s.Decoding() {
			f.waiting = make([]int, nw)
		}
		for j := 0; j < nw && s.Err() == nil; j++ {
			s.Int(&f.waiting[j])
		}
		s.Int(&f.threads)
		s.F64(&f.partial)
		switch {
		case s.Err() != nil:
			return
		case f.op > isa.OpConstAssign:
			s.Fail("coordinator flow %#x: op %d out of range", uint64(f.target), f.op)
		case (f.threads > 0 && nw >= f.threads) || (f.threads <= 0 && nw != 0):
			s.Fail("coordinator flow %#x: inconsistent gather barrier %d/%d",
				uint64(f.target), nw, f.threads)
		case !s.Decoding(): // encoding: the flow stays where it is
		case c.flows[f.target] != nil:
			s.Fail("coordinator flow %#x decoded twice", uint64(f.target))
		default:
			c.flows[f.target] = f
		}
	}
}

// EachWaiter calls fn with the id of every thread waiting on a live flow.
// The order is unspecified.
func (c *Coordinator) EachWaiter(fn func(tid int)) {
	//ar:exempt(determinism) order-independent: the only caller marks each id in a per-core table and fails on a repeat, whatever the order
	for _, f := range c.flows {
		for _, tid := range f.waiting {
			fn(tid)
		}
	}
}
