package network

import "testing"

// zeroLoadArrival is the closed-form delivery cycle of a lone packet
// injected at cycle inject (DESIGN.md "Zero-load packet latency"): it
// leaves at the next network clock edge and every hop costs serialisation
// (⌈Size/LinkBandwidth⌉), link latency and router delay, in network cycles
// of ClockDiv simulator cycles each. No packet is ever delivered earlier.
func zeroLoadArrival(f *Fabric, p *Packet, inject uint64) uint64 {
	c := f.Cfg
	ser := (uint64(p.Size) + uint64(c.LinkBandwidth) - 1) / uint64(c.LinkBandwidth)
	hops := uint64(PathLen(f.Topo, int(p.Src), int(p.Dst)))
	edge := (inject + c.ClockDiv - 1) / c.ClockDiv * c.ClockDiv
	return edge + hops*(ser+c.LinkLatency+c.RouterDelay)*c.ClockDiv
}

// TestZeroLoadLatencyClosedForm drives one packet at a time through an
// otherwise empty fabric and requires it to arrive exactly at the closed
// form: on both topologies, under both Table 4.1 parameter sets, for a
// request, a response and an update (three wire sizes and all three VC
// classes), between every (source, destination) pair. The inject cycle is
// odd, so the memory network's 2:1 clock must round it up to an edge.
func TestZeroLoadLatencyClosedForm(t *testing.T) {
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
	for _, tp := range topos {
		for _, cf := range cfgs {
			t.Run(tp.name+"/"+cf.name, func(t *testing.T) {
				f := NewFabric(tp.topo, cf.cfg)
				var got []uint64
				for n := 0; n < tp.topo.Nodes(); n++ {
					f.SetEndpoint(n, EndpointFunc(func(_ *Packet, c uint64) bool {
						got = append(got, c)
						return true
					}))
				}
				cycle := uint64(1)
				for _, k := range []Kind{MemReadReq, MemReadResp, UpdateReq} {
					for src := 0; src < tp.topo.Nodes(); src++ {
						for dst := 0; dst < tp.topo.Nodes(); dst++ {
							if src == dst {
								continue
							}
							p := NewPacket(k, src, dst)
							inject := cycle | 1
							if !f.Inject(src, p, inject) {
								t.Fatal("inject into an empty fabric refused")
							}
							want := zeroLoadArrival(f, &p, inject)
							got = got[:0]
							for cycle = inject; !f.Drained() && cycle <= want; cycle++ {
								f.Tick(cycle)
							}
							if len(got) != 1 || got[0] != want {
								t.Fatalf("%s %d->%d injected at %d: delivered at %v, want %d", k, src, dst, inject, got, want)
							}
						}
					}
				}
			})
		}
	}
}
