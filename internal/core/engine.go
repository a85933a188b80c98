package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Cube is the ARE's view of its host cube: local vault access, packet
// injection into the memory network, and routing/geometry queries. The hmc
// package implements it.
type Cube interface {
	// VaultReadTag enqueues a word read at the local vault holding pa,
	// whose value arrives through the engine's OperandResp(tag, ...). It
	// reports false on vault queue backpressure.
	VaultReadTag(pa mem.PAddr, tag uint64) bool
	// Inject offers a copy of p to the local router; false means the
	// injection queue is full.
	Inject(p network.Packet) bool
	// CubeOf maps a physical address to its home cube id.
	CubeOf(pa mem.PAddr) int
	// NodeOfCube maps a cube id to its network node id.
	NodeOfCube(cube int) int
	// NextHopToCube returns the next node id on the minimal route from
	// this cube to the given cube.
	NextHopToCube(cube int) int
	// Nodes returns the memory network's node count; every node id a flow
	// entry names lies below it.
	Nodes() int
}

// EngineConfig sizes one Active-Routing Engine.
type EngineConfig struct {
	MaxFlows    int    // Active Flow Table capacity
	OperandBufs int    // operand buffer pool size (two-operand updates)
	DecodeRate  int    // packets decoded per ARE cycle
	ALURate     int    // update commits per ARE cycle
	InQDepth    int    // ARE input queue depth (packets)
	ClockDiv    uint64 // simulator cycles per ARE cycle (logic layer @1 GHz); a power of two
	BypassOff   bool   // ablation: disable the single-operand bypass (§3.2.3)
}

// DefaultEngineConfig returns the configuration used in the evaluation.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		MaxFlows:    256,
		OperandBufs: 32,
		DecodeRate:  2,
		ALURate:     2,
		InQDepth:    16,
		ClockDiv:    2,
	}
}

// EngineStats collects the per-cube counters behind Figs 5.2 and 5.3.
type EngineStats struct {
	UpdatesCommitted  uint64 // updates that performed NDP at this cube
	UpdatesForwarded  uint64 // updates passed toward a child
	OperandReqsSent   uint64
	OperandBufStalls  uint64 // ARE-cycles stalled for an operand buffer
	FlowTableStalls   uint64 // ARE-cycles stalled for a flow entry
	InjectStalls      uint64 // ARE-cycles stalled on injection backpressure
	GatherReqs        uint64
	GatherResps       uint64
	FlowsCompleted    uint64
	SingleOpBypasses  uint64 // §3.2.3 optimization hits
	PeakOperandInUse  int
	operandBufsInUse  int
	ready             int
	DecodedPackets    uint64
	VaultAccessesSent uint64
}

// counters lists the EngineStats counter fields in snapshot order: every
// uint64 field (PeakOperandInUse, a high-water mark, is not a counter).
func (s *EngineStats) counters() []*uint64 {
	return []*uint64{&s.UpdatesCommitted, &s.UpdatesForwarded, &s.OperandReqsSent,
		&s.OperandBufStalls, &s.FlowTableStalls, &s.InjectStalls, &s.GatherReqs, &s.GatherResps,
		&s.FlowsCompleted, &s.SingleOpBypasses, &s.DecodedPackets, &s.VaultAccessesSent}
}

// Merge folds o into s: counters add, PeakOperandInUse keeps the maximum.
func (s *EngineStats) Merge(o EngineStats) {
	dst, src := s.counters(), o.counters()
	for i, p := range dst {
		*p += *src[i]
	}
	if o.PeakOperandInUse > s.PeakOperandInUse {
		s.PeakOperandInUse = o.PeakOperandInUse
	}
}

// Engine is one Active-Routing Engine (Fig 3.3(a)): packet decoder, Active
// Flow Table, operand buffer pool and ALU, attached to the cube's intra-
// cube switch.
type Engine struct {
	CubeID int
	Node   int // network node id of the host cube
	cfg    EngineConfig
	cube   Cube

	Flows *FlowTable

	inQ       sim.FIFO[network.Packet]
	outQ      [2]sim.FIFO[network.Packet] // operand requests, gather responses (see emit)
	fwdQ      sim.ChunkFIFO[forward]      // update forwards and gather replicas
	byTag     map[uint64]*OperandEntry
	sendQ     []*OperandEntry         // operand requests not yet issued
	readyQ    sim.FIFO[*OperandEntry] // operands complete, waiting for the ALU
	oeFree    []*OperandEntry         // recycled operand entries
	nextTag   uint64
	bypassOff bool // ablation: disable the single-operand bypass

	// ClockDiv is a power of two, so cycle%ClockDiv == cycle&clockMask.
	clockMask uint64

	Stats     EngineStats
	Breakdown stats.LatencyBreakdown
}

// NewEngine builds an ARE for the given cube.
func NewEngine(cubeID, node int, cfg EngineConfig, cube Cube) *Engine {
	return &Engine{
		CubeID:    cubeID,
		Node:      node,
		cfg:       cfg,
		cube:      cube,
		Flows:     NewFlowTable(cfg.MaxFlows),
		byTag:     make(map[uint64]*OperandEntry),
		bypassOff: cfg.BypassOff,
		clockMask: cfg.ClockDiv - 1,
	}
}

// Busy reports whether the engine still holds any in-flight state.
func (e *Engine) Busy() bool {
	if e.inQ.Len() > 0 || len(e.byTag) > 0 || len(e.sendQ) > 0 ||
		e.readyQ.Len() > 0 || e.Flows.Size() > 0 {
		return true
	}
	for i := range e.outQ {
		if e.outQ[i].Len() > 0 {
			return true
		}
	}
	return e.fwdQ.Len() > 0
}

// Deliver accepts an active packet from the network; false applies
// backpressure (the fabric re-offers the packet). p is lent for the call,
// so the input queue keeps a copy. Response-class packets (gather
// responses) are consumed unconditionally: they only free resources (tree
// state, operand buffers), so refusing them behind a buffer-stalled input
// queue would deadlock the response traffic class.
func (e *Engine) Deliver(p *network.Packet, cycle uint64) bool {
	if p.Kind == network.GatherResp {
		if !e.handleGatherResp(p, cycle) {
			panic("core: gather response handling cannot stall")
		}
		e.Stats.DecodedPackets++
		return true
	}
	if e.inQ.Len() >= e.cfg.InQDepth {
		return false
	}
	e.inQ.Push(*p)
	return true
}

// NextWork is the ARE's idle hint. The engine is not registered with the
// kernel: the owning cube ticks it and folds this hint into its own
// sim.Component NextWork. The engine has work only on ARE clock edges
// while any of its queues hold entries. Flow-table state waiting on
// remote operands or gather responses advances through Deliver and
// OperandResp, not through Tick.
func (e *Engine) NextWork(now uint64) uint64 {
	if e.inQ.Len() == 0 && len(e.sendQ) == 0 && e.readyQ.Len() == 0 &&
		e.outQ[0].Len() == 0 && e.outQ[1].Len() == 0 && e.fwdQ.Len() == 0 {
		return sim.Never
	}
	return (now + e.clockMask) &^ e.clockMask
}

// Tick advances the engine one simulator cycle.
//
//ar:hotpath
func (e *Engine) Tick(cycle uint64) {
	if cycle&e.clockMask != 0 {
		return
	}
	e.drainOut(cycle)
	e.issueOperandRequests(cycle)
	e.commitReady(cycle)
	e.decode(cycle)
}

// forward is an Update passed toward its operands or a Gather replica sent
// to a child, waiting in the ARE's class-0 forwarding buffer. It is a
// 64-byte value that becomes a packet only for an injection attempt, so a
// congested buffer holds 64 bytes per entry instead of a 96-byte packet.
type forward struct {
	flow               uint64
	src1, src2, target mem.PAddr
	count, dst         int
	injectCycle        uint64
	tree               uint8
	op                 isa.ALUOp
	gather             bool
}

// emit queues an ARE-originated operand request or gather response in the
// logic-layer forwarding buffer for its traffic class; forwards and gather
// replicas, class 0, queue in fwdQ as values. The buffers are unbounded on
// purpose: Active-Routing's hop-by-hop consume-and-reinject of
// Update/Gather packets would otherwise create a cyclic credit dependency
// across cubes (reinjection resets the packet's VC hop class), and the
// deadlock-free argument becomes "AREs always consume". The buffers model
// logic-layer SRAM; occupancy shows up as latency, preserving the
// congestion behaviour of Figs 5.1/5.2. One buffer per traffic class keeps
// operand requests and gather responses from head-of-line blocking behind
// a congested update forward; per-edge FIFO order (updates before their
// flow's gather replica) is preserved because class-0 forwards share one
// queue.
func (e *Engine) emit(p network.Packet) {
	class := 0
	if p.Kind.IsResponse() {
		class = 1
	}
	e.outQ[class].Push(p)
}

// drainOut injects buffered packets into the local router, each class in
// FIFO order.
//
//ar:hotpath
func (e *Engine) drainOut(cycle uint64) {
	for class := 1; class >= 0; class-- {
		for e.outQ[class].Len() > 0 {
			if !e.cube.Inject(e.outQ[class].Peek()) {
				e.Stats.InjectStalls++
				break
			}
			e.outQ[class].Pop()
		}
	}
	for e.fwdQ.Len() > 0 {
		f := e.fwdQ.Peek()
		kind := network.UpdateReq
		if f.gather {
			kind = network.GatherReq
		}
		p := network.NewPacket(kind, e.Node, f.dst)
		p.Flow, p.Op = network.FlowKey{Flow: f.flow, Tree: f.tree}, f.op
		p.Src1, p.Src2, p.Target = f.src1, f.src2, f.target
		p.Count, p.InjectCycle = uint8(f.count), f.injectCycle
		if !e.cube.Inject(p) {
			e.Stats.InjectStalls++ // refused: the entry stays queued and is retried
			return
		}
		e.fwdQ.Pop()
	}
}

// issueOperandRequests retries operand fetches blocked on vault or
// injection backpressure.
func (e *Engine) issueOperandRequests(cycle uint64) {
	kept := e.sendQ[:0]
	for _, oe := range e.sendQ {
		e.tryIssue(oe, cycle)
		if !oe.sent() {
			kept = append(kept, oe) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
		}
	}
	e.sendQ = kept
}

// tryIssue attempts to send the outstanding operand fetches of oe. When the
// last one is issued it stamps the issue cycle (the end of Fig 5.2's stall
// component).
func (e *Engine) tryIssue(oe *OperandEntry, cycle uint64) {
	if !oe.sent1 && e.issueOne(oe, oe.Addr1, oe.tag1) {
		oe.sent1 = true
	}
	if oe.need2 && !oe.sent2 && e.issueOne(oe, oe.Addr2, oe.tag2) {
		oe.sent2 = true
	}
	if oe.sent() {
		oe.issueCycle = cycle
	}
}

// issueOne sends one operand fetch, either to a local vault or as an
// OperandReq packet to the operand's home cube.
func (e *Engine) issueOne(oe *OperandEntry, addr mem.PAddr, tag uint64) bool {
	home := e.cube.CubeOf(addr)
	if home == e.CubeID {
		// The value arrives through OperandResp, like a remote operand's.
		if !e.cube.VaultReadTag(addr, tag) {
			return false
		}
		e.Stats.VaultAccessesSent++
		return true
	}
	p := network.NewPacket(network.OperandReq, e.Node, e.cube.NodeOfCube(home))
	p.Addr = addr
	p.Tag = tag
	e.emit(p)
	e.Stats.OperandReqsSent++
	return true
}

// OperandResp records a fetched operand value — a local vault read's or a
// remote OperandResp packet's — and moves the entry to the ALU queue when
// complete.
func (e *Engine) OperandResp(tag uint64, v float64, cycle uint64) {
	oe, ok := e.byTag[tag]
	if !ok {
		panic(fmt.Sprintf("core: operand response for unknown tag %d at cube %d", tag, e.CubeID))
	}
	delete(e.byTag, tag)
	switch tag {
	case oe.tag1:
		oe.Val1, oe.Ready1 = v, true
	case oe.tag2:
		oe.Val2, oe.Ready2 = v, true
	default:
		panic("core: operand tag mismatch")
	}
	if oe.ready() {
		e.readyQ.Push(oe)
	}
}

// commitReady runs the ALU: up to ALURate updates fold their value into
// their flow entry per ARE cycle (Fig 3.4(b) "compute and update result").
// A committed operand entry is fully consumed (its tags were unmapped when
// the operands arrived) and is recycled.
func (e *Engine) commitReady(cycle uint64) {
	n := e.cfg.ALURate
	for n > 0 && e.readyQ.Len() > 0 {
		oe := e.readyQ.Pop()
		n--
		fe := e.Flows.Lookup(oe.Key)
		if fe == nil {
			panic(fmt.Sprintf("core: commit for released flow %+v at cube %d", oe.Key, e.CubeID))
		}
		fe.Result = fe.Opcode.Combine(fe.Result, oe.Op.Value(oe.Val1, oe.Val2))
		fe.RespCnt++
		if oe.buffered {
			e.Stats.operandBufsInUse--
		}
		e.Stats.UpdatesCommitted++
		e.Breakdown.AddSample(
			oe.arriveCycle-oe.injectCycle,
			oe.issueCycle-oe.arriveCycle,
			cycle-oe.issueCycle,
		)
		e.oeFree = append(e.oeFree, oe) //ar:exempt(hotpath) free list reaches steady-state capacity; append stops growing after warm-up
		e.maybeComplete(fe)
	}
}

// decode processes the ARE input queue in FIFO order. Head-of-line stalls
// (operand buffer exhausted, flow table full, injection backpressure) block
// the queue, which backpressures the router — the mechanism behind the
// stall component of Fig 5.2 and the stall heatmap of Fig 5.3. The head is
// decoded in place, so a vectored update that stalls mid-vector resumes
// from the operand addresses it has reached.
func (e *Engine) decode(cycle uint64) {
	for n := e.cfg.DecodeRate; n > 0 && e.inQ.Len() > 0; n-- {
		p := e.inQ.PtrAt(0)
		var consumed bool
		switch p.Kind {
		case network.UpdateReq:
			consumed = e.handleUpdate(p, cycle)
		case network.GatherReq:
			consumed = e.handleGatherReq(p, cycle)
		default:
			panic(fmt.Sprintf("core: ARE received unexpected packet kind %s", p.Kind))
		}
		if !consumed {
			return
		}
		e.inQ.Pop()
		e.Stats.DecodedPackets++
	}
}

// handleUpdate implements Fig 3.4(a): register/extend the tree, then either
// commit the update here (destination or split point) or forward it toward
// the operands, recording the child edge.
func (e *Engine) handleUpdate(p *network.Packet, cycle uint64) bool {
	fe := e.Flows.Lookup(p.Flow)
	if fe == nil {
		if e.Flows.Full() {
			e.Stats.FlowTableStalls++
			return false
		}
		fe = e.Flows.Register(p.Flow, p.Op, int(p.Src))
	}
	if fe.Gflag {
		// The coordinator's thread barrier plus FIFO links make this
		// impossible; catching it here turns an ordering bug into a
		// diagnosable failure instead of a lost update.
		panic(fmt.Sprintf("core: update arrived after gather for flow %+v at cube %d", p.Flow, e.CubeID))
	}

	commit, next := e.updateRoute(p)
	if !commit {
		e.fwdQ.Push(forward{flow: p.Flow.Flow, tree: p.Flow.Tree, op: p.Op, dst: next,
			src1: p.Src1, src2: p.Src2, target: p.Target, count: int(p.Count), injectCycle: p.InjectCycle})
		fe.AddChild(next)
		e.Stats.UpdatesForwarded++
		return true
	}

	// Destination or split point: reserve operand buffer(s) and fetch the
	// operand(s). A vectored update (Count > 1, the §6 granularity
	// extension) expands one element per iteration, advancing the packet's
	// operand addresses in place; when buffers run out mid-vector the
	// packet stays at the decode head and resumes next cycle.
	for {
		need2 := p.Src2 != 0
		buffered := need2 || e.bypassOff
		if buffered && e.Stats.operandBufsInUse >= e.cfg.OperandBufs {
			e.Stats.OperandBufStalls++
			return false
		}
		e.expandElement(fe, p, cycle, need2, buffered)
		if p.Count <= 1 {
			return true
		}
		p.Count--
		p.Src1 += mem.WordSize
		if p.Src2 != 0 {
			p.Src2 += mem.WordSize
		}
		if e.cube.CubeOf(p.Src1) != e.cube.CubeOf(p.Src1-mem.WordSize) {
			panic("core: vectored update crosses a cube boundary")
		}
	}
}

// expandElement commits one (possibly vector-element) update: allocate the
// buffer, register the fetches and bump the request counter (Fig 3.4(a)).
func (e *Engine) expandElement(fe *FlowEntry, p *network.Packet, cycle uint64, need2, buffered bool) {
	var oe *OperandEntry
	if n := len(e.oeFree); n > 0 {
		oe = e.oeFree[n-1]
		e.oeFree = e.oeFree[:n-1]
		*oe = OperandEntry{}
	} else {
		oe = &OperandEntry{} //ar:exempt(hotpath) pool slow path: allocates only when the free list is empty, cold after warm-up
	}
	oe.Key = p.Flow
	oe.Op = p.Op
	oe.Addr1 = p.Src1
	oe.Addr2 = p.Src2
	oe.need2 = need2
	oe.buffered = buffered
	oe.injectCycle = p.InjectCycle
	oe.arriveCycle = p.ArriveCycle
	if buffered {
		e.Stats.operandBufsInUse++
		if e.Stats.operandBufsInUse > e.Stats.PeakOperandInUse {
			e.Stats.PeakOperandInUse = e.Stats.operandBufsInUse
		}
	} else {
		e.Stats.SingleOpBypasses++
	}
	e.nextTag++
	oe.tag1 = e.tagFor(e.nextTag)
	e.byTag[oe.tag1] = oe
	if need2 {
		e.nextTag++
		oe.tag2 = e.tagFor(e.nextTag)
		e.byTag[oe.tag2] = oe
	}
	fe.ReqCount++
	e.tryIssue(oe, cycle)
	if !oe.sent() {
		e.sendQ = append(e.sendQ, oe) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
	}
}

// tagFor namespaces operand tags per cube so OperandResp packets can be
// matched at the issuing ARE even though tags travel through shared fabric.
func (e *Engine) tagFor(seq uint64) uint64 {
	return uint64(e.CubeID)<<48 | seq
}

// updateRoute decides Fig 3.4(a)'s "destination or split point" test: the
// update commits at the last cube common to the minimal routes of both
// operands (§3.3.2), which is detected hop by hop by comparing next hops.
func (e *Engine) updateRoute(p *network.Packet) (commit bool, next int) {
	c1 := e.cube.CubeOf(p.Src1)
	if p.Src2 == 0 {
		if c1 == e.CubeID {
			return true, 0
		}
		return false, e.cube.NextHopToCube(c1)
	}
	c2 := e.cube.CubeOf(p.Src2)
	local1 := c1 == e.CubeID
	local2 := c2 == e.CubeID
	if local1 || local2 {
		// At an operand's home cube the routes can share no further hop:
		// this is the destination (both local) or the split point.
		return true, 0
	}
	n1 := e.cube.NextHopToCube(c1)
	n2 := e.cube.NextHopToCube(c2)
	if n1 != n2 {
		return true, 0 // split point
	}
	return false, n1
}

// handleGatherReq implements Fig 3.4(c): mark the Gflag and replicate the
// gather wave to every recorded child. The packet is consumed only when
// every replica fits in the injection queue, preserving per-edge FIFO order
// behind earlier updates.
func (e *Engine) handleGatherReq(p *network.Packet, cycle uint64) bool {
	fe := e.Flows.Lookup(p.Flow)
	if fe == nil {
		panic(fmt.Sprintf("core: gather for unknown flow %+v at cube %d", p.Flow, e.CubeID))
	}
	fe.Gflag = true
	for _, child := range fe.Children {
		e.fwdQ.Push(forward{flow: p.Flow.Flow, tree: p.Flow.Tree, op: p.Op, dst: child, gather: true})
		fe.pendingChildren++
	}
	// Children flags are cleared as responses arrive (Fig 3.4(c)).
	fe.Children = fe.Children[:0]
	fe.gatherReplSent = true
	e.Stats.GatherReqs++
	e.maybeComplete(fe)
	return true
}

// handleGatherResp implements Fig 3.4(d): fold the child subtree's partial
// result and complete when this subtree is drained.
func (e *Engine) handleGatherResp(p *network.Packet, cycle uint64) bool {
	fe := e.Flows.Lookup(p.Flow)
	if fe == nil {
		panic(fmt.Sprintf("core: gather response for unknown flow %+v at cube %d", p.Flow, e.CubeID))
	}
	fe.Result = fe.Opcode.Combine(fe.Result, p.Value)
	fe.pendingChildren--
	if fe.pendingChildren < 0 {
		panic("core: more gather responses than children")
	}
	e.Stats.GatherResps++
	e.maybeComplete(fe)
	return true
}

// maybeComplete sends the subtree-complete response toward the parent and
// releases the flow entry. Release at emit time is safe: completion
// requires Gflag, local req==resp and all children drained, after which no
// packet for this flow can reach this node again.
func (e *Engine) maybeComplete(fe *FlowEntry) {
	if !fe.Complete() || fe.completionQd {
		return
	}
	fe.completionQd = true
	p := network.NewPacket(network.GatherResp, e.Node, fe.Parent)
	p.Flow = fe.Key
	p.Op = fe.Opcode
	p.Value = fe.Result
	e.emit(p)
	e.Flows.Release(fe.Key)
	e.Stats.FlowsCompleted++
}
