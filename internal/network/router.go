package network

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Endpoint consumes packets that reach their destination node. Deliver
// returns false to refuse the packet (component backpressure); the fabric
// keeps it queued and re-offers it on later cycles, which is how Active-
// Routing Engine stalls propagate back into the network (Fig 5.2's stall
// component).
//
// p points at the packet in the fabric's own queue and is valid only for
// the call: an endpoint that keeps the packet copies what it keeps (see
// DESIGN.md "Memory discipline").
type Endpoint interface {
	Deliver(p *Packet, cycle uint64) bool
}

// EndpointFunc adapts a function to Endpoint.
type EndpointFunc func(p *Packet, cycle uint64) bool

// Deliver calls f.
func (f EndpointFunc) Deliver(p *Packet, cycle uint64) bool { return f(p, cycle) }

// Config carries the fabric parameters of Table 4.1. Queue depths double as
// the fixed ring-buffer capacities of the router input and injection queues
// (rounded up to powers of two), so the steady-state fabric never allocates.
type Config struct {
	VCs           int    // virtual channels: must be NumVCs
	QueueDepth    int    // packets per (port, VC) input queue
	InjDepth      int    // packets per injection queue
	LinkLatency   uint64 // link traversal latency, network cycles
	LinkBandwidth int    // bytes per network cycle per link
	RouterDelay   uint64 // router pipeline latency, network cycles
	ClockDiv      uint64 // simulator cycles per network cycle: a power of two
}

// DefaultMemNetConfig returns the memory-network parameters: 1 GHz network
// clock under a 2 GHz core clock, 16-lane 12.5 Gbps links (25 GB/s ≈ 25
// bytes per network cycle, rounded to 32 for the 1 GHz crossbar clock).
func DefaultMemNetConfig() Config {
	return Config{
		VCs:           6,
		QueueDepth:    8,
		InjDepth:      16,
		LinkLatency:   4,
		LinkBandwidth: 32,
		RouterDelay:   2,
		ClockDiv:      2,
	}
}

// DefaultNoCConfig returns the on-chip 4×4 mesh parameters (full core
// clock, wide links, short hops).
func DefaultNoCConfig() Config {
	return Config{
		VCs:           6,
		QueueDepth:    8,
		InjDepth:      16,
		LinkLatency:   1,
		LinkBandwidth: 32,
		RouterDelay:   2,
		ClockDiv:      1,
	}
}

// NumVCs is the virtual-channel count every fabric is built with: vcBase's
// three traffic classes times the topologies' two hop classes. vcBase plus
// a hop class addresses VCs 0..NumVCs-1, so a fabric with fewer VCs would
// index past its queues.
const NumVCs = 6

// vcBase maps a packet kind to its VC class pair. Three classes break
// request-generates-request protocol deadlock: plain requests (updates,
// gathers, memory reads) may generate operand/active-store requests, which
// only generate responses — an acyclic class order, each class guaranteed
// to drain assuming the classes above it do.
func vcBase(k Kind) int {
	switch {
	case k.IsResponse():
		return 4
	case k == OperandReq || k == ActiveStoreReq:
		return 2
	default:
		return 0
	}
}

type upstream struct {
	node int
	port int
}

// credRef names one deferred credit: input queue idx at router node.
type credRef struct {
	node int32
	idx  int32
}

// link is a precomputed Topology.Neighbor result for one output port.
type link struct {
	peer     int
	peerPort int
	ok       bool
}

// router holds one node's queues. A packet sent toward a router goes
// straight into its input ring, stamped with the cycle it leaves the wire
// (ArriveCycle): the sender's credit reserved the slot, and each (port, VC)
// input has one upstream link, which sends one packet at a time, so a ring
// holds its packets in arrival order.
type router struct {
	node     int
	ports    int
	in       []packetRing // [port*VCs + vc]
	inj      []packetRing // [vc]
	up       []upstream   // [port] upstream node/port, node == -1 if unused
	credits  []int        // [port*VCs + vc] credits toward downstream input
	linkBusy []uint64     // [port] output link busy-until (simulator cycles)
	rrPort   int          // round-robin arbitration state

	// Precomputed topology views (the topology is immutable).
	links    []link // [port]
	routeTo  []int8 // [dst] output port, -1 for self
	hopClass []int8 // [dst]

	// Head cache of the heads that have arrived, the router's only index
	// of its queues (link inputs at bits [0, ports*VCs), injection queues
	// at [ports*VCs, ports*VCs+VCs)). updateHead alone maintains it, on
	// every head change (push to an empty queue, pop, land), so eject and
	// forward act on it without looking at the head packet again.
	// headOut[q] is the output port the head routes to (-1 when the queue
	// is empty, its head ejects here or is still on the wire); headVC[q]
	// is its downstream VC; ejectHead has bit q set iff the head's
	// destination is this node (never an injection queue: Inject refuses
	// self-addressed packets). wantQ[out] has bit q set iff headOut[q] ==
	// out, and routed is the union of the wantQ masks.
	headOut   []int8 // [nin]
	headVC    []int8 // [nin]
	ejectHead uint64
	wantQ     []uint64 // [ports]
	routed    uint64

	// waitMask has bit q set iff link input q's head is still on the wire;
	// nextAt is the earliest ArriveCycle among those heads (sim.Never when
	// none), when land files it into the head cache.
	waitMask uint64
	nextAt   uint64
}

// queueAt returns input queue idx (link inputs first, then injection).
func (r *router) queueAt(idx, vcs int) *packetRing {
	if idx >= r.ports*vcs {
		return &r.inj[idx-r.ports*vcs]
	}
	return &r.in[idx]
}

// updateHead refreshes the head metadata for queue idx at cycle, then the
// router's busy bit. A link input whose head is still on the wire stays out
// of the head cache and waits for land; an injection queue's head is always
// eligible, whatever ArriveCycle its sender left in it.
func (f *Fabric) updateHead(r *router, idx int, cycle uint64) {
	bit := uint64(1) << uint(idx)
	if old := r.headOut[idx]; old >= 0 {
		r.wantQ[old] &^= bit
		r.routed &^= bit
	}
	r.headOut[idx] = -1
	r.ejectHead &^= bit
	if q := r.queueAt(idx, f.Cfg.VCs); q.len() > 0 {
		h := q.peek()
		switch {
		case idx < r.ports*f.Cfg.VCs && h.ArriveCycle > cycle:
			f.wait(r, idx, h.ArriveCycle)
		case int(h.Dst) == r.node:
			r.ejectHead |= bit
		default:
			out := r.routeTo[h.Dst]
			r.headOut[idx] = out
			r.headVC[idx] = int8(vcBase(h.Kind) + int(r.hopClass[h.Dst]))
			r.wantQ[out] |= bit
			r.routed |= bit
		}
	}
	if r.ejectHead|r.routed != 0 {
		f.busyNodes |= 1 << uint(r.node)
	} else {
		f.busyNodes &^= 1 << uint(r.node)
	}
}

// wait parks link input idx, whose head leaves the wire at cycle at.
func (f *Fabric) wait(r *router, idx int, at uint64) {
	r.waitMask |= 1 << uint(idx)
	if at < r.nextAt {
		r.nextAt = at
	}
	f.waitNodes |= 1 << uint(r.node)
}

// Fabric is one interconnection network instance: topology + routers +
// endpoints, plus the occupancy, credit and accounting state every router
// tick touches.
type Fabric struct {
	Topo Topology
	Cfg  Config

	routers   []*router
	endpoints []Endpoint

	// inflight counts packets inside the fabric, queued or on a wire.
	inflight int

	// Router-level masks, bit = node id: busyNodes marks routers with an
	// arrived head in the head cache (ejectHead|routed != 0), waitNodes
	// routers with a head still on the wire (waitMask != 0).
	busyNodes uint64
	waitNodes uint64

	// waker invalidates the engine's cached idle hint; Inject is the
	// fabric's only external entry point.
	waker *sim.Waker

	// pendingCredits defers credit returns to the start of the fabric's
	// next network cycle (1-cycle credit turnaround). The slice is reused;
	// steady state allocates nothing.
	pendingCredits []credRef

	// ClockDiv is a power of two, so cycle%ClockDiv == cycle&clockMask.
	clockMask uint64

	// classMask[c] selects the head-cache queue bits whose VC belongs to
	// ejection class c (vc/2 == c); shared by all routers since the bit
	// layout has stride Cfg.VCs.
	classMask [3]uint64

	// Counters for Fig 5.4 and the energy model.
	HopBytes  uint64
	Delivered uint64
	Movement  stats.DataMovement
}

// NewFabric builds a network over topo. Endpoints are attached later with
// SetEndpoint. The occupancy masks are single words, so the topology may
// have at most 64 nodes and a router at most 64 input queues (ports*VCs
// link inputs plus VCs injection queues); every topology in this package
// fits. ClockDiv must be a power of two. Every route must leave through a
// linked port: NewFabric panics on one that does not, so forward never
// meets a head wanting an unlinked port (which has no credits either).
func NewFabric(topo Topology, cfg Config) *Fabric {
	if cfg.VCs != NumVCs || cfg.QueueDepth <= 0 || cfg.LinkBandwidth <= 0 ||
		cfg.ClockDiv == 0 || cfg.ClockDiv&(cfg.ClockDiv-1) != 0 {
		panic("network: invalid fabric config")
	}
	f := &Fabric{Topo: topo, Cfg: cfg, clockMask: cfg.ClockDiv - 1}
	n := topo.Nodes()
	if n > 64 {
		panic(fmt.Sprintf("network: %d nodes exceed the 64-bit occupancy masks", n))
	}
	f.routers = make([]*router, n)
	f.endpoints = make([]Endpoint, n)
	for i := 0; i < n; i++ {
		ports := topo.Ports(i)
		if ports*cfg.VCs+cfg.VCs > 64 {
			panic(fmt.Sprintf("network: node %d has %d input queues, over the 64-bit occupancy mask", i, ports*cfg.VCs+cfg.VCs))
		}
		r := &router{
			node:     i,
			ports:    ports,
			in:       make([]packetRing, ports*cfg.VCs),
			inj:      make([]packetRing, cfg.VCs),
			up:       make([]upstream, ports),
			credits:  make([]int, ports*cfg.VCs),
			linkBusy: make([]uint64, ports),
			nextAt:   sim.Never,
			links:    make([]link, ports),
			routeTo:  make([]int8, n),
			hopClass: make([]int8, n),
		}
		for q := range r.in {
			r.in[q] = newPacketRing(cfg.QueueDepth)
		}
		for q := range r.inj {
			r.inj[q] = newPacketRing(cfg.InjDepth)
		}
		nin := ports*cfg.VCs + cfg.VCs
		r.headOut = make([]int8, nin)
		r.headVC = make([]int8, nin)
		r.wantQ = make([]uint64, ports)
		for q := 0; q < nin; q++ {
			r.headOut[q] = -1
		}
		for p := 0; p < ports; p++ {
			r.up[p] = upstream{node: -1}
			peer, peerPort, ok := topo.Neighbor(i, p)
			r.links[p] = link{peer: peer, peerPort: peerPort, ok: ok}
		}
		for dst := 0; dst < n; dst++ {
			if dst == i {
				r.routeTo[dst] = -1
				continue
			}
			out := topo.Route(i, dst)
			if !r.links[out].ok {
				panic(fmt.Sprintf("network: node %d routes to node %d through unlinked port %d", i, dst, out))
			}
			r.routeTo[dst] = int8(out)
			r.hopClass[dst] = int8(topo.HopClass(i, dst))
		}
		f.routers[i] = r
	}
	for c := 0; c < 3; c++ {
		for idx := 0; idx < 64; idx++ {
			if (idx%cfg.VCs)/2 == c {
				f.classMask[c] |= 1 << uint(idx)
			}
		}
	}
	// Wire credits and upstream pointers.
	for i := 0; i < n; i++ {
		r := f.routers[i]
		for p := 0; p < r.ports; p++ {
			l := r.links[p]
			if !l.ok {
				continue
			}
			f.routers[l.peer].up[l.peerPort] = upstream{node: i, port: p}
			for vc := 0; vc < cfg.VCs; vc++ {
				r.credits[p*cfg.VCs+vc] = cfg.QueueDepth
			}
		}
	}
	return f
}

// SetEndpoint attaches the component that consumes packets at node n.
func (f *Fabric) SetEndpoint(n int, e Endpoint) { f.endpoints[n] = e }

// SetWaker implements sim.Component: Inject is the fabric's only
// external entry point; everything else advances through its own Tick.
func (f *Fabric) SetWaker(w *sim.Waker) { f.waker = w }

// Inject copies packet p into the injection queue at node n; it reports
// false when the queue is full. The queued copy's Src is forced to n and
// its InjectCycle, when zero, set to cycle.
func (f *Fabric) Inject(n int, p Packet, cycle uint64) bool {
	if int(p.Dst) >= f.Topo.Nodes() {
		panic(fmt.Sprintf("network: inject to invalid node %d", p.Dst))
	}
	if int(p.Dst) == n {
		panic("network: inject to self; deliver locally instead")
	}
	r := f.routers[n]
	vc := vcBase(p.Kind)
	if r.inj[vc].len() >= f.Cfg.InjDepth {
		return false
	}
	p.Src = uint8(n)
	if p.InjectCycle == 0 {
		p.InjectCycle = cycle
	}
	r.inj[vc].push(&p)
	if r.inj[vc].len() == 1 {
		f.updateHead(r, r.ports*f.Cfg.VCs+vc, cycle)
	}
	f.waker.Wake()
	f.inflight++
	f.account(&p)
	return true
}

func (f *Fabric) account(p *Packet) {
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
}

// Drained reports whether no packets remain anywhere in the fabric (a
// counter read).
func (f *Fabric) Drained() bool { return f.inflight == 0 }

// InFlight counts packets currently inside the fabric (a counter read).
func (f *Fabric) InFlight() int { return f.inflight }

// NextWork implements sim.Component: the next clock edge while some router
// has an arrived head, otherwise the earliest cycle a head leaves the wire
// (sim.Never when the fabric is empty).
func (f *Fabric) NextWork(now uint64) uint64 {
	if f.busyNodes != 0 {
		return f.alignUp(now)
	}
	next := sim.Never
	for m := f.waitNodes; m != 0; {
		node := bits.TrailingZeros64(m)
		m &= m - 1
		next = min(next, f.routers[node].nextAt)
	}
	if next == sim.Never {
		return sim.Never
	}
	return f.alignUp(max(now, next))
}

// alignUp rounds c up to the next network clock edge.
func (f *Fabric) alignUp(c uint64) uint64 {
	return (c + f.clockMask) &^ f.clockMask
}

// onEdge reports whether c is a network clock edge.
func (f *Fabric) onEdge(c uint64) bool {
	return c&f.clockMask == 0
}

// Tick advances the fabric by one simulator cycle: apply deferred credits,
// then land, eject and forward at every router with work. Packets move
// only through the rings: a hop copies the packet once, from the sender's
// ring into the receiver's.
//
//ar:hotpath
func (f *Fabric) Tick(cycle uint64) {
	if !f.onEdge(cycle) {
		return
	}
	if len(f.pendingCredits) > 0 {
		for _, c := range f.pendingCredits {
			f.routers[c.node].credits[c.idx]++
		}
		f.pendingCredits = f.pendingCredits[:0]
	}
	if f.inflight == 0 {
		return
	}
	// Phase 1: land — file heads that left the wire by now into the head
	// cache. Only routers with a waiting head are visited, and those whose
	// earliest one is still on the wire return at once.
	for m := f.waitNodes; m != 0; {
		node := bits.TrailingZeros64(m)
		m &= m - 1
		f.land(f.routers[node], cycle)
	}
	// Phase 2: ejection — deliver packets that reached their destination.
	// Ejection handlers may synchronously inject new packets (marking more
	// routers busy), but injection never adds an ejectable head, so the
	// snapshot covers every router with ejectable state.
	for m := f.busyNodes; m != 0; {
		node := bits.TrailingZeros64(m)
		m &= m - 1
		if r := f.routers[node]; r.ejectHead != 0 {
			f.eject(r, cycle)
		}
	}
	// Phase 3: switch allocation and forwarding (a forwarded packet is
	// still on the wire, so it adds no head to the snapshot).
	for m := f.busyNodes; m != 0; {
		node := bits.TrailingZeros64(m)
		m &= m - 1
		if r := f.routers[node]; r.routed != 0 {
			f.forward(r, cycle)
		}
	}
}

// land files the waiting heads of r that have left the wire by cycle into
// the head cache and recomputes nextAt from the heads still waiting.
func (f *Fabric) land(r *router, cycle uint64) {
	if r.nextAt > cycle {
		return
	}
	next := sim.Never
	for m := r.waitMask; m != 0; {
		idx := bits.TrailingZeros64(m)
		m &= m - 1
		if at := r.in[idx].peek().ArriveCycle; at > cycle {
			next = min(next, at)
			continue
		}
		r.waitMask &^= 1 << uint(idx)
		f.updateHead(r, idx, cycle)
	}
	r.nextAt = next
	if r.waitMask == 0 {
		f.waitNodes &^= 1 << uint(r.node)
	}
}

// eject delivers destination packets at router r, higher traffic classes
// first (responses, then operand requests, then plain requests) so the
// drain order matches the deadlock-freedom argument. Each queue gets one
// delivery attempt per cycle; endpoint refusals backpressure the network.
// Ejection bandwidth is otherwise unbounded — a modeling simplification the
// simulated results depend on (see DESIGN.md). Only the link inputs whose
// cached head ejects here are visited, class descending, then port then VC
// ascending.
//
//ar:hotpath
func (f *Fabric) eject(r *router, cycle uint64) {
	ep := f.endpoints[r.node]
	for pass := 0; pass < 3; pass++ {
		class := 2 - pass // 2=response, 1=operand, 0=request
		for m := f.classMask[class] & r.ejectHead; m != 0; m &= m - 1 {
			f.ejectQueue(r, ep, bits.TrailingZeros64(m), cycle)
		}
	}
}

// ejectQueue offers the head of link input idx, which the head cache marks
// as ejecting here, to the endpoint (one attempt per queue per class pass).
// Deliver borrows the head slot; a successful Deliver pops it.
//
//ar:hotpath
func (f *Fabric) ejectQueue(r *router, ep Endpoint, idx int, cycle uint64) {
	q := &r.in[idx]
	p := q.peek()
	if ep == nil {
		panic(fmt.Sprintf("network: packet %s for node %d with no endpoint", p.Kind, r.node))
	}
	p.ArriveCycle = cycle
	if !ep.Deliver(p, cycle) {
		return
	}
	q.pop()
	f.inflight--
	f.updateHead(r, idx, cycle)
	f.returnCredit(r, idx/f.Cfg.VCs, idx%f.Cfg.VCs)
	f.Delivered++
}

// forward performs output-port arbitration: for every output port send one
// head that routes to it and whose cached VC has a credit, round-robin over
// the inputs (link inputs, then injection queues) starting at rrPort.
//
//ar:hotpath
func (f *Fabric) forward(r *router, cycle uint64) {
	nin := r.ports*f.Cfg.VCs + f.Cfg.VCs // link inputs + injection queues
	for out := 0; out < r.ports; out++ {
		// wantQ is read per port because a send can promote a new head
		// wanting a later port this same cycle.
		want := r.wantQ[out]
		if want == 0 || r.linkBusy[out] > cycle {
			continue
		}
		// Visit the wanting queues in (rrPort + k) % nin order: the bits at
		// and above rrPort first, then the wrapped-around low bits.
		high := want & (^uint64(0) << uint(r.rrPort))
	scan:
		for _, m := range [2]uint64{high, want &^ high} {
			for ; m != 0; m &= m - 1 {
				idx := bits.TrailingZeros64(m)
				if r.credits[out*f.Cfg.VCs+int(r.headVC[idx])] > 0 {
					f.send(r, out, idx, cycle, nin)
					break scan
				}
			}
		}
	}
}

// send transmits the head of input queue idx through output port out on its
// cached downstream VC, which forward found a credit for: stamp the cycle
// the packet leaves the wire, copy it into the peer's input ring (the credit
// reserved the slot), then pop it.
//
//ar:hotpath
func (f *Fabric) send(r *router, out, idx int, cycle uint64, nin int) {
	q := r.queueAt(idx, f.Cfg.VCs)
	p := q.peek()
	vc := int(r.headVC[idx])
	ser := uint64((int(p.Size) + f.Cfg.LinkBandwidth - 1) / f.Cfg.LinkBandwidth)
	p.ArriveCycle = cycle + (ser+f.Cfg.LinkLatency+f.Cfg.RouterDelay)*f.Cfg.ClockDiv
	l := r.links[out]
	peer := f.routers[l.peer]
	pidx := l.peerPort*f.Cfg.VCs + vc
	in := &peer.in[pidx]
	in.push(p)
	if in.len() == 1 {
		f.wait(peer, pidx, p.ArriveCycle)
	}
	f.HopBytes += uint64(p.Size)
	r.linkBusy[out] = cycle + ser*f.Cfg.ClockDiv
	q.pop()
	f.updateHead(r, idx, cycle)
	if idx < r.ports*f.Cfg.VCs {
		f.returnCredit(r, idx/f.Cfg.VCs, idx%f.Cfg.VCs)
	}
	r.credits[out*f.Cfg.VCs+vc]--
	r.rrPort = (idx + 1) % nin
}

// returnCredit gives a buffer slot back to the upstream router feeding
// (port, vc) at r. The return is deferred to the start of the fabric's next
// network cycle, modeling a 1-cycle credit turnaround: a slot freed in
// cycle C is first usable upstream in cycle C+1, whatever the order the
// routers tick in within C.
func (f *Fabric) returnCredit(r *router, port, vc int) {
	up := r.up[port]
	if up.node < 0 {
		return
	}
	f.pendingCredits = append(f.pendingCredits, credRef{node: int32(up.node), idx: int32(up.port*f.Cfg.VCs + vc)}) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
}
