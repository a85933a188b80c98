package network

import "testing"

// FuzzFabricTraffic drives a whole fabric with arbitrary traffic: packets
// of any kind between any (source, destination) pair, endpoints that start
// and stop refusing deliveries, and idle stretches. The first byte picks
// the topology, the parameter set and a queue depth; the rest is read in
// three-byte ops. Every delivery must be an injected packet, unchanged but
// for its stamps, in FIFO order per (source, destination, VC class) and no
// earlier than the zero-load closed form; after every cycle the occupancy
// state must match a full scan (checkOccupancy) and injected packets must
// equal delivered plus in-flight ones. At the end every endpoint accepts
// and the fabric must drain with each packet delivered exactly once.
func FuzzFabricTraffic(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 15, 4, 2, 19, 1, 16, 3, 3, 9, 0})
	f.Add(uint8(1), []byte{2, 5, 0, 0, 3, 5, 8, 6, 5, 3, 15, 0, 2, 5, 0})
	f.Add(uint8(6), []byte{0, 0, 19, 4, 0, 19, 8, 0, 19, 2, 19, 0, 3, 30, 0, 2, 19, 0})
	f.Add(uint8(15), []byte{1, 16, 17, 5, 17, 16, 9, 18, 19, 13, 19, 18, 3, 7, 0})
	f.Fuzz(func(t *testing.T, sel uint8, ops []byte) {
		var topo Topology = NewDragonfly([]int{0, 4, 8, 12})
		if sel&1 == 1 {
			topo = NewMesh(4, []int{0, 3, 12, 15})
		}
		cfg := DefaultMemNetConfig()
		if sel&2 != 0 {
			cfg = DefaultNoCConfig()
		}
		cfg.QueueDepth = 1 + int(sel>>2)%8
		fab := NewFabric(topo, cfg)
		n := topo.Nodes()

		type record struct {
			p      Packet
			inject uint64
			seq    int
		}
		type flowKey struct{ src, dst, class int }
		sent := map[uint64]record{}
		nextSeq := map[flowKey]int{} // next sequence number to inject
		wantSeq := map[flowKey]int{} // next sequence number to deliver
		refuse := make([]bool, n)
		injected, delivered := 0, 0
		cycle := uint64(1)
		for node := 0; node < n; node++ {
			node := node
			fab.SetEndpoint(node, EndpointFunc(func(p *Packet, c uint64) bool {
				if refuse[node] {
					return false
				}
				rec, ok := sent[p.Tag]
				if !ok {
					t.Fatalf("cycle %d node %d: delivery of unknown tag %d", c, node, p.Tag)
				}
				delete(sent, p.Tag)
				if int(p.Dst) != node || p.ArriveCycle != c || p.InjectCycle != rec.inject {
					t.Fatalf("cycle %d node %d: tag %d dst %d stamps inject %d arrive %d, want inject %d",
						c, node, p.Tag, p.Dst, p.InjectCycle, p.ArriveCycle, rec.inject)
				}
				q := *p
				q.InjectCycle, q.ArriveCycle = rec.p.InjectCycle, rec.p.ArriveCycle
				if q != rec.p {
					t.Fatalf("cycle %d: tag %d changed in flight:\n got %+v\nwant %+v", c, p.Tag, q, rec.p)
				}
				k := flowKey{int(p.Src), node, vcBase(p.Kind)}
				if rec.seq != wantSeq[k] {
					t.Fatalf("cycle %d: flow %v delivered #%d, want #%d", c, k, rec.seq, wantSeq[k])
				}
				wantSeq[k]++
				if lo := zeroLoadArrival(fab, &rec.p, rec.inject); c < lo {
					t.Fatalf("cycle %d: tag %d delivered before its zero-load arrival %d", c, p.Tag, lo)
				}
				delivered++
				return true
			}))
		}
		tick := func() {
			fab.Tick(cycle)
			checkOccupancy(t, fab, cycle)
			if injected != delivered+fab.InFlight() {
				t.Fatalf("cycle %d: injected %d, delivered %d + in flight %d", cycle, injected, delivered, fab.InFlight())
			}
			cycle++
		}
		for len(ops) >= 3 {
			op, a, b := ops[0], int(ops[1]), int(ops[2])
			ops = ops[3:]
			switch op % 4 {
			case 0, 1:
				src, dst := a%n, b%n
				if src == dst {
					break
				}
				p := NewPacket(Kind(1+int(op/4)%int(HostMsgResp)), src, dst)
				p.Tag = uint64(injected+1) | uint64(op)<<56
				p.Addr = 0x7fff_0000_0008
				p.Value = float64(injected)
				k := flowKey{src, dst, vcBase(p.Kind)}
				if fab.Inject(src, p, cycle) {
					p.InjectCycle = cycle
					sent[p.Tag] = record{p: p, inject: cycle, seq: nextSeq[k]}
					nextSeq[k]++
					injected++
				}
			case 2:
				refuse[a%n] = !refuse[a%n]
			case 3:
				for i := 0; i < a%32; i++ {
					tick()
				}
			}
			tick()
		}
		for i := range refuse {
			refuse[i] = false
		}
		for limit := cycle + 100000; !fab.Drained() && cycle < limit; {
			tick()
		}
		if !fab.Drained() || len(sent) != 0 || delivered != injected {
			t.Fatalf("fabric did not drain: %d of %d delivered, %d still in flight", delivered, injected, fab.InFlight())
		}
	})
}
