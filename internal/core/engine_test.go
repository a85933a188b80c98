package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/network"
)

// mockCube drives an Engine without a network: vault reads complete when
// the test flushes them, injections are captured for inspection.
type mockCube struct {
	id      int
	geom    mem.HMCGeometry
	store   *mem.Store
	t       *testing.T
	pending []vaultRead
	out     []network.Packet
	injCap  int
	vaultOK bool
}

// vaultRead is one accepted VaultReadTag awaiting flush.
type vaultRead struct {
	pa  mem.PAddr
	tag uint64
}

func newMockCube(t *testing.T, id int) *mockCube {
	return &mockCube{
		id:      id,
		geom:    mem.DefaultHMCGeometry(),
		store:   mem.NewStore(),
		t:       t,
		injCap:  64,
		vaultOK: true,
	}
}

func (m *mockCube) VaultReadTag(pa mem.PAddr, tag uint64) bool {
	if !m.vaultOK {
		return false
	}
	m.pending = append(m.pending, vaultRead{pa, tag})
	return true
}

func (m *mockCube) Inject(p network.Packet) bool {
	if len(m.out) >= m.injCap {
		return false
	}
	m.out = append(m.out, p)
	return true
}

func (m *mockCube) CubeOf(pa mem.PAddr) int { return m.geom.CubeOf(pa) }
func (m *mockCube) NodeOfCube(cube int) int { return cube }
func (m *mockCube) NextHopToCube(c int) int { return c } // direct hop in tests
func (m *mockCube) Nodes() int              { return 64 }

// flush completes all pending vault reads into e, in issue order.
func (m *mockCube) flush(e *Engine) {
	for len(m.pending) > 0 {
		r := m.pending[0]
		m.pending = m.pending[1:]
		e.OperandResp(r.tag, m.store.ReadF64(r.pa), 0)
	}
}

// addrInCube returns a word address homed at the given cube.
func addrInCube(geom mem.HMCGeometry, cube int) mem.PAddr {
	pa := mem.PAddr(cube * mem.PageSize)
	if geom.CubeOf(pa) != cube {
		panic("test geometry mismatch")
	}
	return pa
}

func tick(e *Engine, n int) {
	for i := 0; i < n; i++ {
		e.Tick(uint64(i * 2)) // ClockDiv=2: every even cycle is an ARE cycle
	}
}

func updatePacket(flow network.FlowKey, op isa.ALUOp, src1, src2, from int, geom mem.HMCGeometry) *network.Packet {
	p := network.NewPacket(network.UpdateReq, from, 0)
	p.Flow = flow
	p.Op = op
	p.Src1 = addrInCube(geom, src1)
	if src2 >= 0 {
		p.Src2 = addrInCube(geom, src2)
	}
	return &p
}

func TestFlowTableRegisterRelease(t *testing.T) {
	ft := NewFlowTable(2)
	k1 := network.FlowKey{Flow: 1}
	k2 := network.FlowKey{Flow: 2}
	ft.Register(k1, isa.OpAdd, 9)
	ft.Register(k2, isa.OpMac, 9)
	if !ft.Full() {
		t.Fatal("table should be full")
	}
	if ft.Peak != 2 || ft.Registered != 2 {
		t.Fatalf("peak=%d registered=%d", ft.Peak, ft.Registered)
	}
	ft.Release(k1)
	if ft.Full() || ft.Size() != 1 {
		t.Fatal("release did not free an entry")
	}
}

func TestFlowTableDuplicatePanics(t *testing.T) {
	ft := NewFlowTable(4)
	k := network.FlowKey{Flow: 1}
	ft.Register(k, isa.OpAdd, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ft.Register(k, isa.OpAdd, 0)
}

func TestFlowEntryMirrorsTable31(t *testing.T) {
	// Table 3.1 fields: flowID, opcode, result, req_counter, resp_counter,
	// parent, children flags, Gflag.
	fe := NewFlowEntry(network.FlowKey{Flow: 0xABC, Tree: 1}, isa.OpMac, 7)
	if fe.Key.Flow != 0xABC || fe.Opcode != isa.OpMac || fe.Parent != 7 {
		t.Fatalf("entry fields wrong: %+v", fe)
	}
	if fe.Result != 0 || fe.ReqCount != 0 || fe.RespCnt != 0 || fe.Gflag {
		t.Fatalf("entry not at identity: %+v", fe)
	}
	if len(fe.Children) != 0 {
		t.Fatal("children set must start empty")
	}
}

// deliver pushes a packet into the engine, failing the test on refusal.
func deliver(t *testing.T, e *Engine, p *network.Packet) {
	t.Helper()
	if !e.Deliver(p, 0) {
		t.Fatal("engine refused packet")
	}
}

func TestSingleOperandUpdateCommitsLocally(t *testing.T) {
	mc := newMockCube(t, 3)
	e := NewEngine(3, 3, DefaultEngineConfig(), mc)
	pa := addrInCube(mc.geom, 3)
	mc.store.WriteF64(pa, 2.5)

	flow := network.FlowKey{Flow: 100}
	p := updatePacket(flow, isa.OpAdd, 3, -1, 19, mc.geom)
	deliver(t, e, p)
	tick(e, 2)
	mc.flush(e)
	tick(e, 2)

	fe := e.Flows.Lookup(flow)
	if fe == nil {
		t.Fatal("flow not registered")
	}
	if fe.Result != 2.5 || fe.ReqCount != 1 || fe.RespCnt != 1 {
		t.Fatalf("entry = %+v", fe)
	}
	if e.Stats.SingleOpBypasses != 1 {
		t.Fatal("single-operand update must bypass the operand buffer (§3.2.3)")
	}
	if e.Stats.PeakOperandInUse != 0 {
		t.Fatal("bypass must not consume operand buffers")
	}
	if fe.Parent != 19 {
		t.Fatalf("parent = %d, want the upstream node 19", fe.Parent)
	}
}

func TestTwoOperandLocalUpdate(t *testing.T) {
	mc := newMockCube(t, 5)
	e := NewEngine(5, 5, DefaultEngineConfig(), mc)
	a := addrInCube(mc.geom, 5)
	b := a + 8
	mc.store.WriteF64(a, 3)
	mc.store.WriteF64(b, 4)

	flow := network.FlowKey{Flow: 200}
	p := updatePacket(flow, isa.OpMac, 5, 5, 16, mc.geom)
	p.Src2 = b
	deliver(t, e, p)
	tick(e, 2)
	mc.flush(e)
	tick(e, 2)

	fe := e.Flows.Lookup(flow)
	if fe.Result != 12 {
		t.Fatalf("mac result = %v, want 12", fe.Result)
	}
	if e.Stats.PeakOperandInUse != 1 {
		t.Fatalf("two-operand update must hold one operand buffer, got %d", e.Stats.PeakOperandInUse)
	}
}

func TestUpdateForwardsTowardOperands(t *testing.T) {
	// Both operands at cube 9: cube 5 must forward (record a child), not
	// commit.
	mc := newMockCube(t, 5)
	e := NewEngine(5, 5, DefaultEngineConfig(), mc)
	flow := network.FlowKey{Flow: 300}
	p := updatePacket(flow, isa.OpMac, 9, 9, 16, mc.geom)
	deliver(t, e, p)
	tick(e, 2) // decode, then drain the forwarding buffer

	fe := e.Flows.Lookup(flow)
	if fe == nil {
		t.Fatal("tree node not registered on pass-through")
	}
	if fe.ReqCount != 0 {
		t.Fatal("pass-through must not count as local request")
	}
	if len(fe.Children) != 1 || fe.Children[0] != 9 {
		t.Fatalf("child flag not recorded: %+v", fe.Children)
	}
	if len(mc.out) != 1 || mc.out[0].Kind != network.UpdateReq || mc.out[0].Dst != 9 {
		t.Fatalf("forwarded packet wrong: %+v", mc.out)
	}
	if e.Stats.UpdatesForwarded != 1 {
		t.Fatal("forward not counted")
	}
}

// TestCongestedForwardBufferHoldsNoPackets backs up update forwards behind
// a router that refuses every injection. The buffer must hold them as
// forward values, not packets. Once the router accepts again, the forwards
// leave in arrival order with their fields intact.
func TestCongestedForwardBufferHoldsNoPackets(t *testing.T) {
	mc := newMockCube(t, 5)
	mc.injCap = 0
	e := NewEngine(5, 5, DefaultEngineConfig(), mc)
	flow := network.FlowKey{Flow: 300, Tree: 2}
	const n = 600 // several ChunkFIFO chunks
	for i := 0; i < n; i++ {
		p := updatePacket(flow, isa.OpMac, 9, 9, 16, mc.geom)
		p.Src1 += mem.PAddr(8 * (i % 256))
		p.Count = uint8(1 + i%3)
		p.InjectCycle = uint64(1000 + i)
		deliver(t, e, p)
		tick(e, 1)
	}
	if e.fwdQ.Len() != n {
		t.Fatalf("forwarding buffer holds %d entries, want %d", e.fwdQ.Len(), n)
	}
	if e.Stats.InjectStalls == 0 {
		t.Fatal("refused injections not counted")
	}

	mc.injCap = n
	tick(e, 1)
	if len(mc.out) != n || e.fwdQ.Len() > 0 {
		t.Fatalf("injected %d forwards, %d still buffered; want %d and 0", len(mc.out), e.fwdQ.Len(), n)
	}
	for i, p := range mc.out {
		want := addrInCube(mc.geom, 9) + mem.PAddr(8*(i%256))
		if p.Kind != network.UpdateReq || p.Dst != 9 || p.Flow != flow || p.Op != isa.OpMac ||
			p.Src1 != want || p.Src2 != addrInCube(mc.geom, 9) || int(p.Count) != 1+i%3 ||
			p.InjectCycle != uint64(1000+i) {
			t.Fatalf("forward %d wrong: %+v", i, p)
		}
	}
}

// TestDeliverCopiesLentPacket pins the network.Endpoint contract: Deliver
// borrows the packet only for the call, and the fabric reuses its queue
// slot as soon as the call returns. The ARE must decode its own copy.
func TestDeliverCopiesLentPacket(t *testing.T) {
	mc := newMockCube(t, 5)
	e := NewEngine(5, 5, DefaultEngineConfig(), mc)
	flow := network.FlowKey{Flow: 700, Tree: 1}
	p := updatePacket(flow, isa.OpAdd, 9, -1, 16, mc.geom)
	p.InjectCycle = 42
	want := *p
	deliver(t, e, p)
	// The slot now carries an unrelated packet.
	*p = network.NewPacket(network.UpdateReq, 17, 5)
	p.Flow, p.Op = network.FlowKey{Flow: 701}, isa.OpMac
	p.Src1 = addrInCube(mc.geom, 11)
	tick(e, 2)

	if e.Flows.Lookup(p.Flow) != nil {
		t.Fatal("ARE decoded the overwritten packet")
	}
	fe := e.Flows.Lookup(flow)
	if fe == nil || fe.Parent != 16 || fe.Opcode != isa.OpAdd {
		t.Fatalf("flow entry %+v, want parent 16 and op add", fe)
	}
	if len(mc.out) != 1 {
		t.Fatalf("ARE sent %d packets, want one forward", len(mc.out))
	}
	got := mc.out[0]
	if got.Dst != 9 || got.Flow != want.Flow || got.Op != want.Op ||
		got.Src1 != want.Src1 || got.InjectCycle != want.InjectCycle {
		t.Fatalf("forward %+v, want the delivered update %+v", got, want)
	}
}

func TestSplitPointDetection(t *testing.T) {
	// Operands at two different cubes, neither local, next hops differ in
	// the mock (NextHop = destination): commit here with two operand
	// requests (Fig 3.6's cube-3 example).
	mc := newMockCube(t, 3)
	e := NewEngine(3, 3, DefaultEngineConfig(), mc)
	flow := network.FlowKey{Flow: 400}
	p := updatePacket(flow, isa.OpMac, 15, 12, 16, mc.geom)
	deliver(t, e, p)
	tick(e, 2)

	fe := e.Flows.Lookup(flow)
	if fe.ReqCount != 1 {
		t.Fatal("split point must commit the update locally")
	}
	reqs := 0
	for _, out := range mc.out {
		if out.Kind == network.OperandReq {
			reqs++
		}
	}
	if reqs != 2 {
		t.Fatalf("split point sent %d operand requests, want 2", reqs)
	}
}

func TestOperandResponsesCompleteUpdate(t *testing.T) {
	mc := newMockCube(t, 3)
	e := NewEngine(3, 3, DefaultEngineConfig(), mc)
	flow := network.FlowKey{Flow: 500}
	p := updatePacket(flow, isa.OpMac, 15, 12, 16, mc.geom)
	deliver(t, e, p)
	tick(e, 2)

	// Answer the two operand requests out of order.
	var tags []uint64
	for _, out := range mc.out {
		if out.Kind == network.OperandReq {
			tags = append(tags, out.Tag)
		}
	}
	e.OperandResp(tags[1], 7, 0)
	e.OperandResp(tags[0], 6, 0)
	tick(e, 2)

	fe := e.Flows.Lookup(flow)
	if fe.Result != 42 || fe.RespCnt != 1 {
		t.Fatalf("entry = %+v, want result 42", fe)
	}
}

func TestGatherTeardownSingleNode(t *testing.T) {
	mc := newMockCube(t, 3)
	e := NewEngine(3, 3, DefaultEngineConfig(), mc)
	pa := addrInCube(mc.geom, 3)
	mc.store.WriteF64(pa, 1.5)
	flow := network.FlowKey{Flow: 600}
	for i := 0; i < 4; i++ {
		deliver(t, e, updatePacket(flow, isa.OpAdd, 3, -1, 16, mc.geom))
	}
	tick(e, 4)
	mc.flush(e)
	tick(e, 4)

	g := network.NewPacket(network.GatherReq, 16, 3)
	g.Flow, g.Op = flow, isa.OpAdd
	g.Src = 16
	deliver(t, e, &g)
	tick(e, 4)

	if e.Flows.Lookup(flow) != nil {
		t.Fatal("flow entry not released after gather")
	}
	var resp *network.Packet
	for i := range mc.out {
		if mc.out[i].Kind == network.GatherResp {
			resp = &mc.out[i]
		}
	}
	if resp == nil {
		t.Fatal("no gather response sent to parent")
	}
	if resp.Dst != 16 || resp.Value != 6 {
		t.Fatalf("gather response = %+v, want value 6 to node 16", resp)
	}
	if !e.Busy() == false && e.Flows.Size() != 0 {
		t.Fatal("engine left residual state")
	}
}

func TestGatherWaitsForPendingUpdates(t *testing.T) {
	mc := newMockCube(t, 3)
	e := NewEngine(3, 3, DefaultEngineConfig(), mc)
	pa := addrInCube(mc.geom, 3)
	mc.store.WriteF64(pa, 1)
	flow := network.FlowKey{Flow: 700}
	deliver(t, e, updatePacket(flow, isa.OpAdd, 3, -1, 16, mc.geom))
	tick(e, 2) // vault read pending, not yet completed

	g := network.NewPacket(network.GatherReq, 16, 3)
	g.Flow, g.Op = flow, isa.OpAdd
	g.Src = 16
	deliver(t, e, &g)
	tick(e, 2)

	if e.Flows.Lookup(flow) == nil {
		t.Fatal("flow released while an update is in flight (req != resp)")
	}
	mc.flush(e)
	tick(e, 2)
	if e.Flows.Lookup(flow) != nil {
		t.Fatal("flow not released after the pending update committed")
	}
}

func TestGatherReplicatesToChildren(t *testing.T) {
	mc := newMockCube(t, 5)
	e := NewEngine(5, 5, DefaultEngineConfig(), mc)
	flow := network.FlowKey{Flow: 800}
	// Two pass-through updates toward different cubes create two children.
	deliver(t, e, updatePacket(flow, isa.OpAdd, 9, -1, 16, mc.geom))
	deliver(t, e, updatePacket(flow, isa.OpAdd, 11, -1, 16, mc.geom))
	tick(e, 2)

	g := network.NewPacket(network.GatherReq, 16, 5)
	g.Flow, g.Op = flow, isa.OpAdd
	g.Src = 16
	deliver(t, e, &g)
	tick(e, 2)

	replicas := map[uint8]bool{}
	for _, out := range mc.out {
		if out.Kind == network.GatherReq {
			replicas[out.Dst] = true
		}
	}
	if !replicas[9] || !replicas[11] {
		t.Fatalf("gather replicas missing: %v", replicas)
	}
	// Subtree completes only after both children respond.
	if e.Flows.Lookup(flow) == nil {
		t.Fatal("flow released before children responded")
	}
	for _, child := range []int{9, 11} {
		r := network.NewPacket(network.GatherResp, child, 5)
		r.Flow, r.Op, r.Value = flow, isa.OpAdd, 2.5
		deliver(t, e, &r)
	}
	tick(e, 2)
	if e.Flows.Lookup(flow) != nil {
		t.Fatal("flow not released after all children responded")
	}
	var resp *network.Packet
	for i := range mc.out {
		if mc.out[i].Kind == network.GatherResp {
			resp = &mc.out[i]
		}
	}
	if resp == nil || resp.Value != 5 {
		t.Fatalf("aggregated subtree result wrong: %+v", resp)
	}
}

func TestOperandBufferExhaustionStalls(t *testing.T) {
	mc := newMockCube(t, 3)
	cfg := DefaultEngineConfig()
	cfg.OperandBufs = 1
	e := NewEngine(3, 3, cfg, mc)
	flow := network.FlowKey{Flow: 900}
	// Two two-operand updates: the second must stall while the first holds
	// the only buffer (operand responses withheld).
	deliver(t, e, updatePacket(flow, isa.OpMac, 15, 12, 16, mc.geom))
	deliver(t, e, updatePacket(flow, isa.OpMac, 15, 12, 16, mc.geom))
	tick(e, 4)
	if e.Stats.OperandBufStalls == 0 {
		t.Fatal("no operand-buffer stall counted")
	}
	fe := e.Flows.Lookup(flow)
	if fe.ReqCount != 1 {
		t.Fatalf("second update must not commit yet (req=%d)", fe.ReqCount)
	}
	// Free the buffer: answer the first update's operands.
	var tags []uint64
	for _, out := range mc.out {
		if out.Kind == network.OperandReq {
			tags = append(tags, out.Tag)
		}
	}
	e.OperandResp(tags[0], 1, 0)
	e.OperandResp(tags[1], 1, 0)
	tick(e, 4)
	if fe.ReqCount != 2 {
		t.Fatalf("stalled update never committed (req=%d)", fe.ReqCount)
	}
}

func TestFlowTableExhaustionStalls(t *testing.T) {
	mc := newMockCube(t, 3)
	cfg := DefaultEngineConfig()
	cfg.MaxFlows = 1
	e := NewEngine(3, 3, cfg, mc)
	deliver(t, e, updatePacket(network.FlowKey{Flow: 1}, isa.OpAdd, 3, -1, 16, mc.geom))
	deliver(t, e, updatePacket(network.FlowKey{Flow: 2}, isa.OpAdd, 3, -1, 16, mc.geom))
	tick(e, 4)
	if e.Stats.FlowTableStalls == 0 {
		t.Fatal("flow table exhaustion must stall the decoder")
	}
	if e.Flows.Lookup(network.FlowKey{Flow: 2}) != nil {
		t.Fatal("second flow must not be registered")
	}
}

func TestUpdateAfterGatherPanics(t *testing.T) {
	mc := newMockCube(t, 3)
	e := NewEngine(3, 3, DefaultEngineConfig(), mc)
	flow := network.FlowKey{Flow: 1000}
	deliver(t, e, updatePacket(flow, isa.OpAdd, 9, -1, 16, mc.geom))
	tick(e, 2)
	g := network.NewPacket(network.GatherReq, 16, 3)
	g.Flow, g.Op = flow, isa.OpAdd
	g.Src = 16
	deliver(t, e, &g)
	tick(e, 2)
	// A late update for a gathered flow is an ordering violation the
	// engine must surface loudly.
	deliver(t, e, updatePacket(flow, isa.OpAdd, 9, -1, 16, mc.geom))
	defer func() {
		if recover() == nil {
			t.Fatal("expected ordering-violation panic")
		}
	}()
	tick(e, 2)
}

func TestBypassDisabledAblation(t *testing.T) {
	mc := newMockCube(t, 3)
	cfg := DefaultEngineConfig()
	cfg.BypassOff = true
	e := NewEngine(3, 3, cfg, mc)
	pa := addrInCube(mc.geom, 3)
	mc.store.WriteF64(pa, 1)
	deliver(t, e, updatePacket(network.FlowKey{Flow: 1}, isa.OpAdd, 3, -1, 16, mc.geom))
	tick(e, 2)
	if e.Stats.SingleOpBypasses != 0 {
		t.Fatal("bypass should be disabled")
	}
	if e.Stats.PeakOperandInUse != 1 {
		t.Fatal("disabled bypass must consume an operand buffer")
	}
}

func TestVectoredUpdateExpands(t *testing.T) {
	mc := newMockCube(t, 3)
	e := NewEngine(3, 3, DefaultEngineConfig(), mc)
	base := addrInCube(mc.geom, 3)
	for i := 0; i < 4; i++ {
		mc.store.WriteF64(base+mem.PAddr(i*8), float64(i+1))
		mc.store.WriteF64(base+mem.PAddr(32+i*8), 2)
	}
	flow := network.FlowKey{Flow: 1100}
	p := updatePacket(flow, isa.OpMac, 3, 3, 16, mc.geom)
	p.Src1 = base
	p.Src2 = base + 32
	p.Count = 4
	deliver(t, e, p)
	tick(e, 4)
	mc.flush(e)
	tick(e, 4)

	fe := e.Flows.Lookup(flow)
	if fe.ReqCount != 4 || fe.RespCnt != 4 {
		t.Fatalf("vector expansion counts: %+v", fe)
	}
	// sum of (i+1)*2 for i in 0..3 = 20.
	if fe.Result != 20 {
		t.Fatalf("vector result = %v, want 20", fe.Result)
	}
	if e.Stats.UpdatesCommitted != 4 {
		t.Fatalf("committed %d, want 4 elements", e.Stats.UpdatesCommitted)
	}
}

func TestVectoredUpdateResumesOnBufferExhaustion(t *testing.T) {
	mc := newMockCube(t, 3)
	cfg := DefaultEngineConfig()
	cfg.OperandBufs = 2
	e := NewEngine(3, 3, cfg, mc)
	base := addrInCube(mc.geom, 3)
	flow := network.FlowKey{Flow: 1200}
	p := updatePacket(flow, isa.OpMac, 3, 3, 16, mc.geom)
	p.Src1 = base
	p.Src2 = base + 32
	p.Count = 4
	deliver(t, e, p)
	tick(e, 2)
	fe := e.Flows.Lookup(flow)
	if fe.ReqCount != 2 {
		t.Fatalf("expected partial expansion with 2 buffers, got req=%d", fe.ReqCount)
	}
	if e.Stats.OperandBufStalls == 0 {
		t.Fatal("no stall counted for mid-vector buffer exhaustion")
	}
	mc.flush(e) // free the first two buffers
	tick(e, 4)
	mc.flush(e)
	tick(e, 4)
	if fe.ReqCount != 4 || fe.RespCnt != 4 {
		t.Fatalf("vector never finished: %+v", fe)
	}
}

func TestEnergyAwarePolicyPicksNearestPort(t *testing.T) {
	c, _, _ := newCoord(PolicyEnergyAware)
	// Hop metric: port i entry cube = 4i; distance = |entry - cube|.
	c.SetDistanceFn(func(port, cube int) int {
		d := 4*port - cube
		if d < 0 {
			d = -d
		}
		return d
	})
	// Both operands near cube 12 -> port 3.
	if got := c.portFor(UpdateCmd{Op: isa.OpMac, Src1: addrOnCube(12), Src2: addrOnCube(13)}); got != 3 {
		t.Fatalf("energy policy picked port %d, want 3", got)
	}
	// Operands split between cubes 0 and 4 -> port 0 or 1 (cost 4), ties
	// break low. Cube 0's address uses the second stripe: physical address
	// zero is the no-operand sentinel.
	cube0 := mem.PAddr(16 * mem.PageSize)
	if got := c.portFor(UpdateCmd{Op: isa.OpMac, Src1: cube0, Src2: addrOnCube(4)}); got != 0 {
		t.Fatalf("energy policy tie-break picked port %d, want 0", got)
	}
}

func TestEnergyAwareFallbackWithoutMetric(t *testing.T) {
	c, _, _ := newCoord(PolicyEnergyAware)
	if got := c.portFor(UpdateCmd{Op: isa.OpAdd, Src1: addrOnCube(9)}); got != 2 {
		t.Fatalf("fallback picked port %d, want address-policy port 2", got)
	}
}
