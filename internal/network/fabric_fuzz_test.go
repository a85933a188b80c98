package network

import (
	"fmt"
	"testing"
)

// delivery is one accepted Deliver: the packet's tag and the cycle.
type delivery struct{ tag, cycle uint64 }

// logEndpoints attaches to each of n nodes an endpoint that refuses while
// refuse[node] is set and otherwise appends the delivery to *log.
func logEndpoints(n int, set func(int, Endpoint), refuse []bool, log *[]delivery) {
	for node := 0; node < n; node++ {
		node := node
		set(node, EndpointFunc(func(p *Packet, c uint64) bool {
			if refuse[node] {
				return false
			}
			*log = append(*log, delivery{p.Tag, c})
			return true
		}))
	}
}

// sameTraffic fails t unless fabric got and the reference want made the
// same deliveries, in the same order at the same cycles, and counted the
// same hop bytes, deliveries and data movement.
func sameTraffic(t *testing.T, name string, f *Fabric, got []delivery, ref *refFabric, want []delivery) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			g, w := delivery{}, delivery{}
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			t.Fatalf("%s: delivery #%d is tag %d at cycle %d, the reference's tag %d at cycle %d (%d and %d deliveries)",
				name, i, g.tag, g.cycle, w.tag, w.cycle, len(got), len(want))
		}
	}
	if f.HopBytes != ref.HopBytes || f.Delivered != ref.Delivered || f.Movement != ref.Movement {
		t.Fatalf("%s: HopBytes %d Delivered %d Movement %+v, reference %d %d %+v",
			name, f.HopBytes, f.Delivered, f.Movement, ref.HopBytes, ref.Delivered, ref.Movement)
	}
}

// jumpDrive ticks a fabric the way the idle-aware engine does: it polls
// NextWork only once the cycle the fabric last asked for has come (or after
// a successful Inject, which wakes it) and skips Tick while the answer lies
// ahead.
type jumpDrive struct {
	f      *Fabric
	parked uint64 // skip until this cycle; 0 polls at once
}

func (j *jumpDrive) inject(n int, p Packet, cycle uint64) bool {
	ok := j.f.Inject(n, p, cycle)
	if ok {
		j.parked = 0
	}
	return ok
}

func (j *jumpDrive) tick(cycle uint64) {
	if cycle < j.parked {
		return
	}
	if w := j.f.NextWork(cycle); w > cycle {
		j.parked = w
		return
	}
	j.f.Tick(cycle)
	j.parked = 0
}

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
//
// Two more machines take the same injections and endpoint decisions: the
// reference fabric (refFabric), ticked every cycle, and a second Fabric
// ticked only when its NextWork asks (jumpDrive). All three must accept
// and refuse the same injections, make the same deliveries at the same
// cycles and count the same traffic.
func FuzzFabricTraffic(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 15, 4, 2, 19, 1, 16, 3, 3, 9, 0})
	f.Add(uint8(1), []byte{2, 5, 0, 0, 3, 5, 8, 6, 5, 3, 15, 0, 2, 5, 0})
	f.Add(uint8(6), []byte{0, 0, 19, 4, 0, 19, 8, 0, 19, 2, 19, 0, 3, 30, 0, 2, 19, 0})
	f.Add(uint8(15), []byte{1, 16, 17, 5, 17, 16, 9, 18, 19, 13, 19, 18, 3, 7, 0})
	f.Add(uint8(2), []byte{0, 0, 5, 0, 1, 5, 4, 2, 5, 8, 3, 5, 0, 4, 5, 4, 6, 5, 8, 7, 5, 1, 0, 0, 1, 0, 0, 1, 0, 0, 3, 20, 0})
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
		ref := newRefFabric(topo, cfg)
		jump := &jumpDrive{f: NewFabric(topo, cfg)}
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
		var got, want, jumped []delivery
		logEndpoints(n, ref.SetEndpoint, refuse, &want)
		logEndpoints(n, jump.f.SetEndpoint, refuse, &jumped)
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
				got = append(got, delivery{p.Tag, c})
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
			ref.Tick(cycle)
			jump.tick(cycle)
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
				ok := fab.Inject(src, p, cycle)
				if r, j := ref.Inject(src, p, cycle), jump.inject(src, p, cycle); r != ok || j != ok {
					t.Fatalf("cycle %d: inject %d->%d accepted %v, by the reference %v, by the jump-driven fabric %v",
						cycle, src, dst, ok, r, j)
				}
				if ok {
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
		for limit := cycle + 100000; !(fab.Drained() && jump.f.Drained()) && cycle < limit; {
			tick()
		}
		if !fab.Drained() || len(sent) != 0 || delivered != injected {
			t.Fatalf("fabric did not drain: %d of %d delivered, %d still in flight", delivered, injected, fab.InFlight())
		}
		sameTraffic(t, "ticked every cycle", fab, got, ref, want)
		sameTraffic(t, "ticked at NextWork", jump.f, jumped, ref, want)
	})
}

// TestFabricMatchesReferenceAllToAll saturates both topologies under both
// parameter sets, with one and eight credits per VC: every node offers a
// packet every cycle, to each other node in turn and of every traffic
// class, while endpoints refuse in a rotating pattern. The fabric must
// accept and refuse the same injections as the reference fabric, make the
// same deliveries at the same cycles and count the same traffic.
func TestFabricMatchesReferenceAllToAll(t *testing.T) {
	topos := []struct {
		name string
		topo Topology
	}{
		{"dragonfly", NewDragonfly([]int{0, 4, 8, 12})},
		{"mesh", NewMesh(4, []int{0, 3, 12, 15})},
	}
	cfgs := []struct {
		name string
		cfg  Config
	}{
		{"memnet", DefaultMemNetConfig()},
		{"noc", DefaultNoCConfig()},
	}
	kinds := []Kind{MemReadReq, MemReadResp, UpdateReq, OperandReq, GatherResp, MemWriteReq, ActiveStoreReq}
	const load = 400 // cycles of offered traffic
	for _, tp := range topos {
		for _, cf := range cfgs {
			for _, depth := range []int{1, 8} {
				cfg := cf.cfg
				cfg.QueueDepth = depth
				t.Run(fmt.Sprintf("%s/%s/depth%d", tp.name, cf.name, depth), func(t *testing.T) {
					fab, ref := NewFabric(tp.topo, cfg), newRefFabric(tp.topo, cfg)
					n := tp.topo.Nodes()
					refuse := make([]bool, n)
					var got, want []delivery
					logEndpoints(n, fab.SetEndpoint, refuse, &got)
					logEndpoints(n, ref.SetEndpoint, refuse, &want)
					tag, refused := uint64(0), 0
					for cycle := uint64(1); cycle <= load || !fab.Drained(); cycle++ {
						if cycle > 100000 {
							t.Fatalf("fabric did not drain: %d in flight", fab.InFlight())
						}
						for node := range refuse {
							refuse[node] = cycle <= load && (cycle/3+uint64(node))%5 == 0
						}
						for src := 0; cycle <= load && src < n; src++ {
							p := NewPacket(kinds[(int(cycle)+src)%len(kinds)], src, (src+1+int(cycle)%(n-1))%n)
							tag++
							p.Tag = tag
							ok := fab.Inject(src, p, cycle)
							if ok != ref.Inject(src, p, cycle) {
								t.Fatalf("cycle %d: inject of tag %d at node %d accepted %v, by the reference %v", cycle, tag, src, ok, !ok)
							}
							if !ok {
								refused++
							}
						}
						fab.Tick(cycle)
						ref.Tick(cycle)
					}
					if refused == 0 || len(got) == 0 {
						t.Fatalf("%d deliveries and %d refused injections: the traffic does not saturate", len(got), refused)
					}
					sameTraffic(t, "all-to-all", fab, got, ref, want)
				})
			}
		}
	}
}
