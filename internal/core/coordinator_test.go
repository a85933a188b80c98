package core

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/network"
)

// fakePort records injected packets.
type fakePort struct {
	index   int
	entry   int
	sent    []network.Packet
	blocked bool
}

func (p *fakePort) Node() int      { return 16 + p.index }
func (p *fakePort) EntryNode() int { return p.entry }
func (p *fakePort) Inject(pkt network.Packet) bool {
	if p.blocked {
		return false
	}
	p.sent = append(p.sent, pkt)
	return true
}

func newCoord(policy PortPolicy) (*Coordinator, []*fakePort, *mem.Store) {
	geom := mem.DefaultHMCGeometry()
	ports := make([]Port, 4)
	fakes := make([]*fakePort, 4)
	for i := range fakes {
		fakes[i] = &fakePort{index: i, entry: i * 4}
		ports[i] = fakes[i]
	}
	store := mem.NewStore()
	return NewCoordinator(policy, geom, ports, store, 8, func(int) {}, func(int) {}), fakes, store
}

func addrOnCube(cube int) mem.PAddr { return mem.PAddr(cube * mem.PageSize) }

func TestPolicyStaticAlwaysPortZero(t *testing.T) {
	c, fakes, _ := newCoord(PolicyStatic)
	for tid := 0; tid < 8; tid++ {
		ok := c.EnqueueUpdate(UpdateCmd{
			ThreadID: tid, Op: isa.OpAdd,
			Src1: addrOnCube(tid), Target: addrOnCube(15) + 8,
		}, 0)
		if !ok {
			break // queue cap reached, fine
		}
	}
	c.Tick(1)
	c.Tick(2)
	for i := 1; i < 4; i++ {
		if len(fakes[i].sent) != 0 {
			t.Fatalf("static policy used port %d", i)
		}
	}
	if len(fakes[0].sent) == 0 {
		t.Fatal("static policy sent nothing through port 0")
	}
}

func TestPolicyThreadIDInterleaves(t *testing.T) {
	c, fakes, _ := newCoord(PolicyThreadID)
	for tid := 0; tid < 4; tid++ {
		c.EnqueueUpdate(UpdateCmd{
			ThreadID: tid, Op: isa.OpAdd,
			Src1: addrOnCube(0), Target: addrOnCube(15) + 8,
		}, 0)
	}
	c.Tick(1)
	for i := 0; i < 4; i++ {
		if len(fakes[i].sent) != 1 {
			t.Fatalf("port %d got %d updates, want 1", i, len(fakes[i].sent))
		}
	}
}

func TestPolicyAddressPicksOperandGroup(t *testing.T) {
	c, fakes, _ := newCoord(PolicyAddress)
	// Operand on cube 9 -> group 2 -> port 2.
	c.EnqueueUpdate(UpdateCmd{
		ThreadID: 0, Op: isa.OpAdd,
		Src1: addrOnCube(9), Target: addrOnCube(15) + 8,
	}, 0)
	c.Tick(1)
	if len(fakes[2].sent) != 1 {
		t.Fatalf("address policy did not use port 2: %v", []int{
			len(fakes[0].sent), len(fakes[1].sent), len(fakes[2].sent), len(fakes[3].sent)})
	}
}

func TestGatherBarrierWaitsForAllThreads(t *testing.T) {
	c, fakes, _ := newCoord(PolicyThreadID)
	target := addrOnCube(7)
	c.EnqueueUpdate(UpdateCmd{ThreadID: 0, Op: isa.OpAdd, Src1: addrOnCube(1), Target: target}, 0)
	c.EnqueueGather(GatherCmd{ThreadID: 0, Target: target, Threads: 2}, 0)
	c.Tick(1)
	for _, f := range fakes {
		for _, p := range f.sent {
			if p.Kind == network.GatherReq {
				t.Fatal("gather released before barrier")
			}
		}
	}
	c.EnqueueGather(GatherCmd{ThreadID: 1, Target: target, Threads: 2}, 0)
	c.Tick(2)
	gathers := 0
	for _, f := range fakes {
		for _, p := range f.sent {
			if p.Kind == network.GatherReq {
				gathers++
			}
		}
	}
	if gathers != 1 {
		t.Fatalf("expected 1 gather (one live tree), got %d", gathers)
	}
}

func TestGatherOnlyToLiveTrees(t *testing.T) {
	c, fakes, _ := newCoord(PolicyThreadID)
	target := addrOnCube(3)
	// Threads 0 and 2 contribute -> ports 0 and 2 have trees.
	c.EnqueueUpdate(UpdateCmd{ThreadID: 0, Op: isa.OpMac, Src1: addrOnCube(1), Src2: addrOnCube(2), Target: target}, 0)
	c.EnqueueUpdate(UpdateCmd{ThreadID: 2, Op: isa.OpMac, Src1: addrOnCube(5), Src2: addrOnCube(6), Target: target}, 0)
	c.EnqueueGather(GatherCmd{ThreadID: 0, Target: target, Threads: 1}, 0)
	c.Tick(1)
	c.Tick(2)
	for i, f := range fakes {
		want := 0
		if i == 0 || i == 2 {
			want = 1
		}
		got := 0
		for _, p := range f.sent {
			if p.Kind == network.GatherReq {
				got++
			}
		}
		if got != want {
			t.Fatalf("port %d got %d gathers, want %d", i, got, want)
		}
	}
}

func TestForestReductionAndWriteback(t *testing.T) {
	c, fakes, store := newCoord(PolicyThreadID)
	target := addrOnCube(3)
	store.WriteF64(target, 10)
	c.EnqueueUpdate(UpdateCmd{ThreadID: 0, Op: isa.OpAdd, Src1: addrOnCube(1), Target: target}, 0)
	c.EnqueueUpdate(UpdateCmd{ThreadID: 1, Op: isa.OpAdd, Src1: addrOnCube(2), Target: target}, 0)
	var released []int
	c.gatherDone = func(tid int) { released = append(released, tid) }
	c.EnqueueGather(GatherCmd{ThreadID: 3, Target: target, Threads: 1}, 0)
	c.Tick(1)

	// Fake the two tree responses.
	for _, tree := range []uint8{0, 1} {
		p := network.NewPacket(network.GatherResp, 0, 16)
		p.Flow = network.FlowKey{Flow: uint64(target), Tree: tree}
		p.Value = 2.5
		c.OnGatherResp(&p, 10)
	}
	// The write-back active store should now be queued; drain and ack it.
	c.Tick(11)
	var wb *network.Packet
	for _, f := range fakes {
		for i := range f.sent {
			if f.sent[i].Kind == network.ActiveStoreReq {
				wb = &f.sent[i]
			}
		}
	}
	if wb == nil {
		t.Fatal("no write-back active store")
	}
	if wb.Value != 15 { // 10 (prior) + 2.5 + 2.5
		t.Fatalf("write-back value %v, want 15", wb.Value)
	}
	if len(released) != 0 {
		t.Fatal("released before the write-back was acknowledged")
	}
	ack := network.NewPacket(network.ActiveStoreAck, 0, 16)
	ack.Tag = wb.Tag
	c.OnActiveAck(&ack, 20)
	if len(released) != 1 || released[0] != 3 {
		t.Fatalf("gather barrier released threads %v, want [3]", released)
	}
	if c.Busy() {
		t.Fatal("coordinator left busy")
	}
}

func TestZeroUpdateFlowCompletes(t *testing.T) {
	c, fakes, store := newCoord(PolicyThreadID)
	target := addrOnCube(5)
	store.WriteF64(target, 3)
	woken := false
	c.gatherDone = func(int) { woken = true }
	c.EnqueueGather(GatherCmd{ThreadID: 0, Target: target, Threads: 1}, 0)
	c.Tick(1)
	// No trees: finalize writes the unchanged value back.
	var wb *network.Packet
	for _, f := range fakes {
		for i := range f.sent {
			if f.sent[i].Kind == network.ActiveStoreReq {
				wb = &f.sent[i]
			}
		}
	}
	if wb == nil {
		t.Fatal("zero-update flow produced no write-back")
	}
	ack := network.NewPacket(network.ActiveStoreAck, 0, 16)
	ack.Tag = wb.Tag
	c.OnActiveAck(&ack, 5)
	if !woken {
		t.Fatal("zero-update flow never completed")
	}
}

func TestQueueBackpressure(t *testing.T) {
	c, fakes, _ := newCoord(PolicyStatic)
	fakes[0].blocked = true
	n := 0
	for i := 0; i < 100; i++ {
		if !c.EnqueueUpdate(UpdateCmd{ThreadID: 0, Op: isa.OpAdd, Src1: addrOnCube(1), Target: addrOnCube(2)}, 0) {
			break
		}
		n++
		c.Tick(uint64(i))
	}
	if n == 0 || n >= 100 {
		t.Fatalf("queue never filled (accepted %d)", n)
	}
	if c.Stats.EnqueueRejects == 0 || c.Stats.PortStalls == 0 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestActiveStoreRouting(t *testing.T) {
	c, fakes, _ := newCoord(PolicyThreadID)
	// const_assign routes to the target's cube group.
	c.EnqueueUpdate(UpdateCmd{ThreadID: 0, Op: isa.OpConstAssign, Target: addrOnCube(13), Imm: 7}, 0)
	// mov routes to the source's cube group first.
	c.EnqueueUpdate(UpdateCmd{ThreadID: 0, Op: isa.OpMov, Src1: addrOnCube(2), Target: addrOnCube(13)}, 0)
	c.Tick(1)
	if len(fakes[3].sent) != 1 || fakes[3].sent[0].Kind != network.ActiveStoreReq {
		t.Fatalf("const_assign misrouted: port3=%d", len(fakes[3].sent))
	}
	if len(fakes[0].sent) != 1 || fakes[0].sent[0].Kind != network.ActiveStoreReq {
		t.Fatalf("mov misrouted: port0=%d", len(fakes[0].sent))
	}
	if c.Stats.ActiveStores != 2 {
		t.Fatalf("stats: %+v", c.Stats)
	}
}

func TestUpdateAfterGatherPanicsAtCoordinator(t *testing.T) {
	c, _, _ := newCoord(PolicyStatic)
	target := addrOnCube(3)
	c.EnqueueUpdate(UpdateCmd{ThreadID: 0, Op: isa.OpAdd, Src1: addrOnCube(1), Target: target}, 0)
	c.EnqueueGather(GatherCmd{ThreadID: 0, Target: target, Threads: 1}, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for update after gather release")
		}
	}()
	c.EnqueueUpdate(UpdateCmd{ThreadID: 0, Op: isa.OpAdd, Src1: addrOnCube(1), Target: target}, 0)
}
