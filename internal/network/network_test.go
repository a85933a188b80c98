package network

import (
	"testing"
	"testing/quick"
)

func TestMeshNeighborSymmetry(t *testing.T) {
	m := NewMesh(4, []int{0, 3, 12, 15})
	for n := 0; n < m.Nodes(); n++ {
		for p := 0; p < m.Ports(n); p++ {
			peer, peerPort, ok := m.Neighbor(n, p)
			if !ok {
				continue
			}
			back, backPort, ok2 := m.Neighbor(peer, peerPort)
			if !ok2 || back != n || backPort != p {
				t.Fatalf("asymmetric link %d.%d -> %d.%d", n, p, peer, peerPort)
			}
		}
	}
}

func TestMeshRoutingReachesEveryPair(t *testing.T) {
	m := NewMesh(4, []int{0, 3, 12, 15})
	for s := 0; s < m.Nodes(); s++ {
		for d := 0; d < m.Nodes(); d++ {
			if s == d {
				continue
			}
			hops := PathLen(m, s, d)
			if hops <= 0 || hops > 8 {
				t.Fatalf("path %d->%d has %d hops", s, d, hops)
			}
		}
	}
}

func TestMeshXYRouteIsMinimal(t *testing.T) {
	m := NewMesh(4, nil)
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			want := abs(s%4-d%4) + abs(s/4-d/4)
			if got := PathLen(m, s, d); got != want {
				t.Fatalf("mesh %d->%d = %d hops, want %d", s, d, got, want)
			}
		}
	}
}

func TestDragonflyNeighborSymmetry(t *testing.T) {
	d := NewDragonfly([]int{0, 4, 8, 12})
	for n := 0; n < d.Nodes(); n++ {
		for p := 0; p < d.Ports(n); p++ {
			peer, peerPort, ok := d.Neighbor(n, p)
			if !ok {
				continue
			}
			back, backPort, ok2 := d.Neighbor(peer, peerPort)
			if !ok2 || back != n || backPort != p {
				t.Fatalf("asymmetric link %d.%d -> %d.%d (back %d.%d ok=%v)",
					n, p, peer, peerPort, back, backPort, ok2)
			}
		}
	}
}

func TestDragonflyMinimalPaths(t *testing.T) {
	d := NewDragonfly([]int{0, 4, 8, 12})
	for s := 0; s < 16; s++ {
		for dst := 0; dst < 16; dst++ {
			if s == dst {
				continue
			}
			hops := PathLen(d, s, dst)
			// Minimal dragonfly routing: at most local-global-local.
			if hops > 3 {
				t.Fatalf("dragonfly %d->%d took %d hops (> 3)", s, dst, hops)
			}
			if s/4 == dst/4 && hops != 1 {
				t.Fatalf("intra-group %d->%d took %d hops, want 1", s, dst, hops)
			}
		}
	}
}

func TestDragonflyControllerReach(t *testing.T) {
	d := NewDragonfly([]int{0, 4, 8, 12})
	for i := 0; i < 4; i++ {
		ctrl := d.EndpointNode(i)
		for cube := 0; cube < 16; cube++ {
			if h := PathLen(d, ctrl, cube); h > 4 {
				t.Fatalf("controller %d to cube %d: %d hops", i, cube, h)
			}
			if h := PathLen(d, cube, ctrl); h > 4 {
				t.Fatalf("cube %d to controller %d: %d hops", cube, i, h)
			}
		}
	}
}

func TestDragonflyHopClassMonotonic(t *testing.T) {
	d := NewDragonfly([]int{0, 4, 8, 12})
	for s := 0; s < 16; s++ {
		for dst := 0; dst < 16; dst++ {
			if s == dst {
				continue
			}
			cls := 0
			for cur := s; cur != dst; {
				c := d.HopClass(cur, dst)
				if c < cls {
					t.Fatalf("hop class decreased on %d->%d at %d", s, dst, cur)
				}
				cls = c
				cur = NextHop(d, cur, dst)
			}
		}
	}
}

func TestPacketSizes(t *testing.T) {
	if SizeOf(MemReadResp) != HeaderBytes+64 {
		t.Fatal("read response must carry a block")
	}
	if SizeOf(UpdateReq) <= HeaderBytes {
		t.Fatal("update packet must carry operands")
	}
	for k := MemReadReq; k <= HostMsgResp; k++ {
		if SizeOf(k) < HeaderBytes {
			t.Fatalf("kind %s smaller than header", k)
		}
	}
}

func TestKindClassification(t *testing.T) {
	resp := []Kind{MemReadResp, MemWriteAck, GatherResp, OperandResp, ActiveStoreAck, HostMsgResp}
	for _, k := range resp {
		if !k.IsResponse() {
			t.Fatalf("%s must be a response", k)
		}
	}
	req := []Kind{MemReadReq, MemWriteReq, UpdateReq, GatherReq, OperandReq, ActiveStoreReq, HostMsg}
	for _, k := range req {
		if k.IsResponse() {
			t.Fatalf("%s must not be a response", k)
		}
	}
	active := []Kind{UpdateReq, GatherReq, GatherResp, OperandReq, OperandResp, ActiveStoreReq, ActiveStoreAck}
	for _, k := range active {
		if !k.Active() {
			t.Fatalf("%s must be active traffic", k)
		}
	}
}

// collector is a test endpoint recording deliveries.
type collector struct {
	got []*Packet
}

func (c *collector) Deliver(p *Packet, cycle uint64) bool {
	c.got = append(c.got, p)
	return true
}

func newTestFabric(t *testing.T) (*Fabric, []*collector) {
	topo := NewDragonfly([]int{0, 4, 8, 12})
	f := NewFabric(topo, DefaultMemNetConfig())
	cols := make([]*collector, topo.Nodes())
	for i := range cols {
		cols[i] = &collector{}
		f.SetEndpoint(i, cols[i])
	}
	return f, cols
}

func TestFabricDeliversPacket(t *testing.T) {
	f, cols := newTestFabric(t)
	p := NewPacket(f.NextID(), MemReadReq, 0, 15)
	if !f.Inject(0, p, 0) {
		t.Fatal("injection failed")
	}
	for cyc := uint64(0); len(cols[15].got) == 0 && cyc < 1000; cyc++ {
		f.Tick(cyc)
	}
	if len(cols[15].got) != 1 {
		t.Fatal("packet not delivered")
	}
	if !f.Drained() {
		t.Fatal("fabric should be drained")
	}
	if cols[15].got[0].Hops == 0 {
		t.Fatal("hops not counted")
	}
}

func TestFabricAllPairsDelivery(t *testing.T) {
	f, cols := newTestFabric(t)
	want := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			p := NewPacket(f.NextID(), MemReadReq, s, d)
			for cyc := uint64(0); !f.Inject(s, p, cyc); cyc++ {
				f.Tick(cyc)
			}
			want++
		}
	}
	total := func() int {
		n := 0
		for _, c := range cols {
			n += len(c.got)
		}
		return n
	}
	for cyc := uint64(0); total() < want && cyc < 100000; cyc++ {
		f.Tick(cyc)
	}
	if total() != want {
		t.Fatalf("delivered %d of %d", total(), want)
	}
	for d, c := range cols {
		for _, p := range c.got {
			if p.Dst != d {
				t.Fatalf("packet for %d delivered at %d", p.Dst, d)
			}
		}
	}
}

func TestFabricFIFOPerPath(t *testing.T) {
	// Packets of the same class on the same route must stay in order —
	// the gather-never-overtakes-updates argument relies on this.
	f, cols := newTestFabric(t)
	const n = 50
	for i := 0; i < n; i++ {
		p := NewPacket(uint64(i+1), UpdateReq, 0, 15)
		p.Tag = uint64(i)
		for cyc := uint64(0); !f.Inject(0, p, cyc); cyc++ {
			f.Tick(cyc)
		}
		f.Tick(0)
	}
	for cyc := uint64(0); len(cols[15].got) < n && cyc < 100000; cyc++ {
		f.Tick(cyc)
	}
	if len(cols[15].got) != n {
		t.Fatalf("delivered %d of %d", len(cols[15].got), n)
	}
	for i, p := range cols[15].got {
		if p.Tag != uint64(i) {
			t.Fatalf("reordered: position %d has tag %d", i, p.Tag)
		}
	}
}

func TestFabricBackpressureRefusedEndpoint(t *testing.T) {
	topo := NewMesh(2, nil)
	f := NewFabric(topo, DefaultNoCConfig())
	refuse := true
	got := 0
	f.SetEndpoint(0, EndpointFunc(func(p *Packet, c uint64) bool { return false }))
	f.SetEndpoint(1, EndpointFunc(func(p *Packet, c uint64) bool {
		if refuse {
			return false
		}
		got++
		return true
	}))
	f.SetEndpoint(2, EndpointFunc(func(p *Packet, c uint64) bool { return false }))
	f.SetEndpoint(3, EndpointFunc(func(p *Packet, c uint64) bool { return false }))
	p := NewPacket(1, MemReadReq, 0, 1)
	if !f.Inject(0, p, 0) {
		t.Fatal("inject failed")
	}
	for cyc := uint64(0); cyc < 100; cyc++ {
		f.Tick(cyc)
	}
	if got != 0 {
		t.Fatal("refused endpoint received a packet")
	}
	if f.Drained() {
		t.Fatal("packet must still be queued")
	}
	refuse = false
	for cyc := uint64(100); cyc < 200 && got == 0; cyc++ {
		f.Tick(cyc)
	}
	if got != 1 {
		t.Fatal("packet not re-offered after backpressure cleared")
	}
}

// TestFabricCreditTurnaround pins the 1-cycle credit turnaround: a buffer
// slot freed downstream in cycle C is first usable upstream in cycle C+1,
// even though the upstream router forwards after the downstream one ejects
// within C.
func TestFabricCreditTurnaround(t *testing.T) {
	cfg := DefaultNoCConfig()
	cfg.QueueDepth = 1 // one credit per (port, VC): the second packet must wait
	f := NewFabric(NewMesh(2, nil), cfg)
	refuse := true
	for n := 0; n < f.Topo.Nodes(); n++ {
		f.SetEndpoint(n, EndpointFunc(func(*Packet, uint64) bool { return !refuse }))
	}
	if !f.Inject(0, NewPacket(1, MemReadReq, 0, 1), 0) {
		t.Fatal("inject failed")
	}
	const c = 20 // the held packet ejects in cycle c
	for cyc := uint64(0); cyc < c; cyc++ {
		f.Tick(cyc)
		if cyc == 0 && !f.Inject(0, NewPacket(2, MemReadReq, 0, 1), 0) {
			t.Fatal("inject failed")
		}
	}
	up := f.routers[0]
	if up.injCount != 1 {
		t.Fatalf("second packet left node 0 without a credit (injCount %d)", up.injCount)
	}
	refuse = false
	f.Tick(c)
	if f.Delivered != 1 {
		t.Fatalf("delivered %d packets in cycle %d, want 1", f.Delivered, c)
	}
	if up.injCount != 1 {
		t.Fatalf("credit freed in cycle %d was used in the same cycle", c)
	}
	f.Tick(c + 1)
	if up.injCount != 0 {
		t.Fatalf("credit freed in cycle %d was not usable in cycle %d", c, c+1)
	}
}

func TestFabricInjectionBackpressure(t *testing.T) {
	f, _ := newTestFabric(t)
	n := 0
	for ; n < 1000; n++ {
		p := NewPacket(f.NextID(), MemReadReq, 0, 15)
		if !f.Inject(0, p, 0) {
			break
		}
	}
	if n == 0 || n >= 1000 {
		t.Fatalf("injection queue never filled (accepted %d)", n)
	}
}

func TestFabricCountsMovement(t *testing.T) {
	f, cols := newTestFabric(t)
	u := NewPacket(1, UpdateReq, 0, 5)
	r := NewPacket(2, MemReadResp, 0, 5)
	f.Inject(0, u, 0)
	f.Inject(0, r, 0)
	for cyc := uint64(0); len(cols[5].got) < 2 && cyc < 1000; cyc++ {
		f.Tick(cyc)
	}
	if f.Movement.ActiveReq != uint64(SizeOf(UpdateReq)) {
		t.Fatalf("active req bytes = %d", f.Movement.ActiveReq)
	}
	if f.Movement.NormResp != uint64(SizeOf(MemReadResp)) {
		t.Fatalf("norm resp bytes = %d", f.Movement.NormResp)
	}
	if f.HopBytes == 0 {
		t.Fatal("hop bytes not accumulated")
	}
}

func TestDragonflyRouteProperty(t *testing.T) {
	d := NewDragonfly([]int{0, 4, 8, 12})
	f := func(s, dst uint8) bool {
		a, b := int(s%20), int(dst%20)
		if a == b {
			return true
		}
		return PathLen(d, a, b) <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFabricRandomTrafficConservation is a property test: under random
// many-to-many traffic with random kinds, every injected packet is
// delivered to its destination exactly once.
func TestFabricRandomTrafficConservation(t *testing.T) {
	topo := NewDragonfly([]int{0, 4, 8, 12})
	f := NewFabric(topo, DefaultMemNetConfig())
	got := map[uint64]int{}
	for i := 0; i < topo.Nodes(); i++ {
		i := i
		f.SetEndpoint(i, EndpointFunc(func(p *Packet, c uint64) bool {
			if p.Dst != i {
				t.Fatalf("packet %d for %d delivered at %d", p.ID, p.Dst, i)
			}
			got[p.ID]++
			return true
		}))
	}
	kinds := []Kind{MemReadReq, MemReadResp, OperandReq, OperandResp, UpdateReq, GatherResp}
	rng := uint64(12345)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	const total = 400
	injected := 0
	var cycle uint64
	for injected < total {
		src := next(16)
		dst := next(topo.Nodes())
		if dst == src {
			dst = (dst + 1) % 16
		}
		p := NewPacket(uint64(injected+1), kinds[next(len(kinds))], src, dst)
		if f.Inject(src, p, cycle) {
			injected++
		}
		f.Tick(cycle)
		cycle++
	}
	for i := 0; i < 200000 && len(got) < total; i++ {
		f.Tick(cycle)
		cycle++
	}
	if len(got) != total {
		t.Fatalf("delivered %d of %d", len(got), total)
	}
	for id, n := range got {
		if n != 1 {
			t.Fatalf("packet %d delivered %d times", id, n)
		}
	}
	if !f.Drained() {
		t.Fatal("fabric not drained after delivery")
	}
}
