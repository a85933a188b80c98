package network

import "repro/internal/stats"

// refFabric is a reference model of the documented router behaviour
// (DESIGN.md "The tick-order contract" and "Fabric timing", the comments on
// eject and forward), written to be read rather than to be fast. Each
// network cycle it scans every queue of every router: it keeps no head
// cache, masks or arrival lists, and it reads only Topology and Config from
// the production code. Driven with the same injections and endpoints, it
// must deliver the same packets at the same cycles as Fabric.
type refFabric struct {
	topo      Topology
	cfg       Config
	routers   []refRouter
	endpoints []Endpoint
	credits   []refCredit // freed slots, usable from the next network cycle
	HopBytes  uint64
	Delivered uint64
	Movement  stats.DataMovement
}

// refRouter holds one node's queues: link inputs at [port*VCs+vc], then the
// injection queues at [ports*VCs+vc]. A packet sent to a router sits in its
// input queue from the send on, stamped with the cycle it leaves the wire.
type refRouter struct {
	in       [][]Packet
	credits  []int    // [port*VCs+vc] free slots in the downstream input
	linkBusy []uint64 // [port] the output link is busy before this cycle
	rr       int      // input the round-robin scan starts at
}

// refCredit names input q of router node.
type refCredit struct{ node, q int }

func newRefFabric(topo Topology, cfg Config) *refFabric {
	f := &refFabric{topo: topo, cfg: cfg}
	f.routers = make([]refRouter, topo.Nodes())
	f.endpoints = make([]Endpoint, topo.Nodes())
	for n := range f.routers {
		ports := topo.Ports(n)
		r := &f.routers[n]
		r.in = make([][]Packet, (ports+1)*cfg.VCs)
		r.credits = make([]int, ports*cfg.VCs)
		r.linkBusy = make([]uint64, ports)
		for q := range r.credits {
			if _, _, ok := topo.Neighbor(n, q/cfg.VCs); ok {
				r.credits[q] = cfg.QueueDepth
			}
		}
	}
	return f
}

// SetEndpoint attaches the component that consumes packets at node n.
func (f *refFabric) SetEndpoint(n int, e Endpoint) { f.endpoints[n] = e }

// refClass is a kind's traffic class: 2 for responses, 1 for the operand
// and active-store requests, 0 for plain requests. Its VCs are 2*class and
// 2*class+1, picked by the hop class.
func refClass(k Kind) int {
	switch {
	case k.IsResponse():
		return 2
	case k == OperandReq || k == ActiveStoreReq:
		return 1
	}
	return 0
}

// Inject queues p at node n's injection queue for its class, or reports
// false when that queue holds InjDepth packets. Movement counts at
// injection.
func (f *refFabric) Inject(n int, p Packet, cycle uint64) bool {
	q := f.topo.Ports(n)*f.cfg.VCs + 2*refClass(p.Kind)
	r := &f.routers[n]
	if len(r.in[q]) >= f.cfg.InjDepth {
		return false
	}
	p.Src = uint8(n)
	if p.InjectCycle == 0 {
		p.InjectCycle = cycle
	}
	r.in[q] = append(r.in[q], p)
	sz := uint64(p.Size)
	switch {
	case p.Kind.Active() && p.Kind.IsResponse():
		f.Movement.ActiveResp += sz
	case p.Kind.Active():
		f.Movement.ActiveReq += sz
	case p.Kind.IsResponse():
		f.Movement.NormResp += sz
	default:
		f.Movement.NormReq += sz
	}
	return true
}

// Tick acts only on network clock edges: apply the credits freed in the
// previous network cycle, then eject at every router, then forward at every
// router, both in node order.
func (f *refFabric) Tick(cycle uint64) {
	if cycle%f.cfg.ClockDiv != 0 {
		return
	}
	for _, c := range f.credits {
		f.routers[c.node].credits[c.q]++
	}
	f.credits = f.credits[:0]
	for n := range f.routers {
		f.eject(n, cycle)
	}
	for n := range f.routers {
		f.forward(n, cycle)
	}
}

// head returns input q's head at node n if it has left the wire by cycle
// (an injection queue's head always has), else nil.
func (f *refFabric) head(n, q int, cycle uint64) *Packet {
	in := f.routers[n].in[q]
	if len(in) == 0 || q < f.topo.Ports(n)*f.cfg.VCs && in[0].ArriveCycle > cycle {
		return nil
	}
	return &in[0]
}

// pop drops input q's head at node n; a link input's slot goes back as a
// credit to the router on the other end of its link.
func (f *refFabric) pop(n, q int) {
	r := &f.routers[n]
	r.in[q] = r.in[q][1:]
	if q < f.topo.Ports(n)*f.cfg.VCs {
		peer, peerPort, _ := f.topo.Neighbor(n, q/f.cfg.VCs)
		f.credits = append(f.credits, refCredit{peer, peerPort*f.cfg.VCs + q%f.cfg.VCs})
	}
}

// eject offers every arrived head addressed to node n to its endpoint,
// once per cycle: the response class first, then operand requests, then
// plain requests, each class in input order. A refused packet stays.
func (f *refFabric) eject(n int, cycle uint64) {
	for class := 2; class >= 0; class-- {
		for q := 0; q < f.topo.Ports(n)*f.cfg.VCs; q++ {
			p := f.head(n, q, cycle)
			if q%f.cfg.VCs/2 != class || p == nil || int(p.Dst) != n {
				continue
			}
			p.ArriveCycle = cycle
			if f.endpoints[n].Deliver(p, cycle) {
				f.pop(n, q)
				f.Delivered++
			}
		}
	}
}

// forward gives each output port whose link is free one send: the first
// arrived head routed through it whose downstream VC has a credit, scanning
// the inputs round-robin from rr. A send moves rr past the sender before
// the next port's scan.
func (f *refFabric) forward(n int, cycle uint64) {
	r := &f.routers[n]
	for out := 0; out < f.topo.Ports(n); out++ {
		if r.linkBusy[out] > cycle {
			continue
		}
		for k := range r.in {
			q := (r.rr + k) % len(r.in)
			p := f.head(n, q, cycle)
			if p == nil || int(p.Dst) == n || f.topo.Route(n, int(p.Dst)) != out {
				continue
			}
			vc := 2*refClass(p.Kind) + f.topo.HopClass(n, int(p.Dst))
			if r.credits[out*f.cfg.VCs+vc] == 0 {
				continue
			}
			f.send(n, out, q, vc, cycle)
			r.rr = (q + 1) % len(r.in)
			break
		}
	}
}

// send moves input q's head at node n over output port out into VC vc of
// the next router's input, where it leaves the wire after serialisation,
// link latency and router delay. The link is busy while it serialises.
func (f *refFabric) send(n, out, q, vc int, cycle uint64) {
	r := &f.routers[n]
	p := r.in[q][0]
	bw := uint64(f.cfg.LinkBandwidth)
	ser := (uint64(p.Size) + bw - 1) / bw
	p.ArriveCycle = cycle + (ser+f.cfg.LinkLatency+f.cfg.RouterDelay)*f.cfg.ClockDiv
	r.linkBusy[out] = cycle + ser*f.cfg.ClockDiv
	r.credits[out*f.cfg.VCs+vc]--
	peer, peerPort, _ := f.topo.Neighbor(n, out)
	pr := &f.routers[peer]
	pr.in[peerPort*f.cfg.VCs+vc] = append(pr.in[peerPort*f.cfg.VCs+vc], p)
	f.HopBytes += uint64(p.Size)
	f.pop(n, q)
}
