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

// maxQueues bounds a router's input queues (ports*NumVCs link inputs plus
// NumVCs injection queues): the head cache's masks are single words.
// maxPorts is the most ports that fit.
const (
	maxQueues = 64
	maxPorts  = maxQueues/NumVCs - 1
)

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
	peer     int32
	peerPort int32
	ok       bool
}

// router holds one node's queues in fixed arrays, sized for the largest
// router NewFabric accepts. A packet sent toward a router goes straight
// into its input ring, stamped with the cycle it leaves the wire
// (ArriveCycle): the sender's credit reserved the slot, and each (port, VC)
// input has one upstream link, which sends one packet at a time, so a ring
// holds its packets in arrival order.
type router struct {
	node  int
	ports int
	nlink int // link inputs, ports*NumVCs; injection queues follow them
	nin   int // all inputs, nlink+NumVCs

	// Head cache of the heads that have arrived, the router's only index
	// of its queues. It changes with every head change: file enters a
	// head pushed to an empty injection queue or landed from the wire;
	// ejectQueue and send clear the head they pop, and promote enters the
	// next one if it has arrived. So eject and forward act on the cache
	// without looking at the head packet again. headOut[q] is the output
	// port the head routes to (-1 when the queue is empty, its head ejects
	// here or is still on the wire); headVC[q] is its downstream VC;
	// ejectHead has bit q set iff the head's destination is this node
	// (never an injection queue: Inject refuses self-addressed packets).
	// wantQ[out] has bit q set iff headOut[q] == out, and wantPorts has
	// bit out set iff wantQ[out] != 0. The router is busy (its bit in
	// Fabric.busyNodes) iff ejectHead|wantPorts != 0.
	ejectHead uint64
	wantPorts uint64
	wantQ     [maxPorts]uint64
	headOut   [maxQueues]int8
	headVC    [maxQueues]int8

	// Precomputed topology views (the topology is immutable), next to the
	// head cache that filing a head writes from them.
	routeTo  [64]int8 // [dst] output port, -1 for self
	hopClass [64]int8 // [dst]
	links    [maxPorts]link
	up       [maxPorts]upstream // [port] upstream node/port, node == -1 if unused

	rrPort   int                   // round-robin arbitration state
	linkBusy [maxPorts]uint64      // [port] output link busy-until (simulator cycles)
	credits  [maxQueues]int32      // [port*NumVCs + vc] credits toward downstream input
	q        [maxQueues]packetRing // link inputs [port*NumVCs + vc], then injection queues [nlink + vc]
}

// arrival is one packet on a wire: it leaves the wire into input queue idx
// of router node at cycle at, at position pos of that queue's ring (the
// ring's push count when it was pushed).
type arrival struct {
	at   uint64
	pos  uint32
	node uint8
	idx  uint8
}

// arrivalList holds, in send order, the arrivals of the packets of one
// serialization class. Every packet of the class takes the same wire
// delay, and the fabric's cycles only move forward, so send order is
// arrival order and the list's head is its earliest arrival.
type arrivalList struct {
	delay uint64 // wire delay of the class, simulator cycles
	sim.FIFO[arrival]
}

// wireClass is the link timing of one packet size.
type wireClass struct {
	busy  uint64 // cycles the packet holds its output link (serialisation)
	delay uint64 // cycles from send to leaving the wire into the next router
	list  int    // index into Fabric.arrivals, -1 until the first send
}

// Fabric is one interconnection network instance: topology + routers +
// endpoints, plus the occupancy, credit and accounting state every router
// tick touches.
type Fabric struct {
	Topo Topology
	Cfg  Config

	routers   []router
	endpoints []Endpoint

	// inflight counts packets inside the fabric, queued or on a wire.
	inflight int

	// busyNodes marks routers with an arrived head in the head cache, bit
	// = node id.
	busyNodes uint64

	// arrivals lists the packets on a wire, one list per serialization
	// class in use, so the land phase visits only packets that arrive; due
	// is the earliest arrival on the lists' heads (sim.Never when they are
	// empty). wire[Size] gives a packet size's link timing and list.
	arrivals []arrivalList
	due      uint64
	wire     [256]wireClass

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
	// layout has stride NumVCs.
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
	f := &Fabric{Topo: topo, Cfg: cfg, clockMask: cfg.ClockDiv - 1, due: sim.Never}
	n := topo.Nodes()
	if n > 64 {
		panic(fmt.Sprintf("network: %d nodes exceed the 64-bit occupancy masks", n))
	}
	f.routers = make([]router, n)
	f.endpoints = make([]Endpoint, n)
	for i := 0; i < n; i++ {
		ports := topo.Ports(i)
		if ports > maxPorts {
			panic(fmt.Sprintf("network: node %d has %d input queues, over the 64-bit occupancy mask", i, ports*NumVCs+NumVCs))
		}
		r := &f.routers[i]
		r.node, r.ports, r.nlink, r.nin = i, ports, ports*NumVCs, (ports+1)*NumVCs
		for q := 0; q < r.nin; q++ {
			depth := cfg.QueueDepth
			if q >= r.nlink {
				depth = cfg.InjDepth
			}
			r.q[q] = newPacketRing(depth)
			r.headOut[q] = -1
		}
		for p := 0; p < ports; p++ {
			r.up[p] = upstream{node: -1}
			peer, peerPort, ok := topo.Neighbor(i, p)
			r.links[p] = link{peer: int32(peer), peerPort: int32(peerPort), ok: ok}
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
	}
	for c := 0; c < 3; c++ {
		for idx := 0; idx < 64; idx++ {
			if (idx%NumVCs)/2 == c {
				f.classMask[c] |= 1 << uint(idx)
			}
		}
	}
	for size := range f.wire {
		ser := uint64((size + cfg.LinkBandwidth - 1) / cfg.LinkBandwidth)
		f.wire[size] = wireClass{
			busy:  ser * cfg.ClockDiv,
			delay: (ser + cfg.LinkLatency + cfg.RouterDelay) * cfg.ClockDiv,
			list:  -1,
		}
	}
	// Wire credits and upstream pointers.
	for i := range f.routers {
		r := &f.routers[i]
		for p := 0; p < r.ports; p++ {
			l := r.links[p]
			if !l.ok {
				continue
			}
			f.routers[l.peer].up[l.peerPort] = upstream{node: i, port: p}
			for vc := 0; vc < NumVCs; vc++ {
				r.credits[p*NumVCs+vc] = int32(cfg.QueueDepth)
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
	r := &f.routers[n]
	idx := r.nlink + vcBase(p.Kind)
	q := &r.q[idx]
	if q.len() >= f.Cfg.InjDepth {
		return false
	}
	p.Src = uint8(n)
	if p.InjectCycle == 0 {
		p.InjectCycle = cycle
	}
	q.push(&p)
	if q.len() == 1 {
		f.file(r, idx, q.peek())
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

// file enters h, the arrived head of queue idx, into r's head cache,
// marking the router busy if it was idle.
func (f *Fabric) file(r *router, idx int, h *Packet) {
	if r.ejectHead|r.wantPorts == 0 {
		f.busyNodes |= 1 << uint(r.node)
	}
	r.cache(idx, h)
}

// cache records h, the arrived head of queue idx, in the head cache: an
// ejectHead bit, or its route, downstream VC and wantQ bit.
func (r *router) cache(idx int, h *Packet) {
	bit := uint64(1) << uint(idx)
	if int(h.Dst) == r.node {
		r.ejectHead |= bit
		return
	}
	out := r.routeTo[h.Dst]
	r.headOut[idx] = out
	r.headVC[idx] = int8(vcBase(h.Kind) + int(r.hopClass[h.Dst]))
	r.wantQ[out] |= bit
	r.wantPorts |= 1 << uint(out)
}

// promote runs after queue idx's cached head was popped and its cache
// entry cleared: the new head, if it has arrived by cycle, takes the
// entry; a link input's head still on the wire waits for its arrival to
// be landed (land). The busy bit is cleared when nothing cached remains.
func (f *Fabric) promote(r *router, idx int, cycle uint64) {
	if q := &r.q[idx]; q.len() > 0 {
		if h := q.peek(); idx >= r.nlink || h.ArriveCycle <= cycle {
			r.cache(idx, h)
			return
		}
	}
	if r.ejectHead|r.wantPorts == 0 {
		f.busyNodes &^= 1 << uint(r.node)
	}
}

// Drained reports whether no packets remain anywhere in the fabric (a
// counter read).
func (f *Fabric) Drained() bool { return f.inflight == 0 }

// InFlight counts packets currently inside the fabric (a counter read).
func (f *Fabric) InFlight() int { return f.inflight }

// NextWork implements sim.Component: the next clock edge while some router
// has an arrived head, otherwise the earliest arrival on the lists' heads
// (sim.Never when no packet is on a wire). That arrival is a waiting
// head's: a packet queued behind a head leaves the wire after it.
func (f *Fabric) NextWork(now uint64) uint64 {
	if f.busyNodes != 0 {
		return f.alignUp(now)
	}
	if f.due == sim.Never {
		return sim.Never
	}
	return f.alignUp(max(now, f.due))
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
	// Phase 1: land — file the heads that left the wire by now into the
	// head cache. Only due arrivals are visited. An arrival whose packet is
	// not its queue's head is dropped: that packet is filed when it becomes
	// the head (promote), since it has arrived by then.
	if f.due <= cycle {
		f.land(cycle)
	}
	// Phase 2: ejection — deliver packets that reached their destination.
	// Ejection handlers may synchronously inject new packets (marking more
	// routers busy), but injection never adds an ejectable head, so the
	// snapshot covers every router with ejectable state.
	for m := f.busyNodes; m != 0; m &= m - 1 {
		if r := &f.routers[bits.TrailingZeros64(m)]; r.ejectHead != 0 {
			f.eject(r, cycle)
		}
	}
	// Phase 3: switch allocation and forwarding (a forwarded packet is
	// still on the wire, so it adds no head to the snapshot).
	for m := f.busyNodes; m != 0; m &= m - 1 {
		if r := &f.routers[bits.TrailingZeros64(m)]; r.wantPorts != 0 {
			f.forward(r, cycle)
		}
	}
}

// land pops every due arrival and files the heads among them, then
// recomputes due.
//
//ar:hotpath
func (f *Fabric) land(cycle uint64) {
	f.due = sim.Never
	for i := range f.arrivals {
		for l := &f.arrivals[i]; !l.Empty(); l.Pop() {
			a := l.PtrAt(0)
			if a.at > cycle {
				f.due = min(f.due, a.at)
				break
			}
			r := &f.routers[a.node]
			if q := &r.q[a.idx]; q.head == a.pos {
				f.file(r, int(a.idx), q.peek())
			}
		}
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
	q := &r.q[idx]
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
	r.ejectHead &^= 1 << uint(idx)
	f.promote(r, idx, cycle)
	f.returnCredit(r, idx/NumVCs, idx%NumVCs)
	f.Delivered++
}

// forward performs output-port arbitration: for every output port send one
// head that routes to it and whose cached VC has a credit, round-robin over
// the inputs (link inputs, then injection queues) starting at rrPort. The
// ports are visited in order through wantPorts, re-read after each port
// because a send can promote a new head wanting a later port this same
// cycle.
//
//ar:hotpath
func (f *Fabric) forward(r *router, cycle uint64) {
	var done uint64 // ports visited: every bit at or below the last one
	for {
		m := r.wantPorts &^ done
		if m == 0 {
			return
		}
		out := bits.TrailingZeros64(m)
		done = 2<<uint(out) - 1
		if r.linkBusy[out] > cycle {
			continue
		}
		// Visit the wanting queues in (rrPort + k) % nin order: rotated
		// right by rrPort, the bits at and above rrPort come first, then
		// the wrapped-around low bits (no bit lies at or above nin).
		for qs := bits.RotateLeft64(r.wantQ[out], -r.rrPort); qs != 0; qs &= qs - 1 {
			idx := (bits.TrailingZeros64(qs) + r.rrPort) & (maxQueues - 1)
			if r.credits[out*NumVCs+int(r.headVC[idx])] > 0 {
				f.send(r, out, idx, cycle)
				break
			}
		}
	}
}

// send transmits the head of input queue idx through output port out on its
// cached downstream VC, which forward found a credit for: stamp the cycle
// the packet leaves the wire, copy it into the peer's input ring (the credit
// reserved the slot) and list its arrival, then pop it.
//
//ar:hotpath
func (f *Fabric) send(r *router, out, idx int, cycle uint64) {
	q := &r.q[idx]
	p := q.peek()
	vc := int(r.headVC[idx])
	w := &f.wire[p.Size]
	p.ArriveCycle = cycle + w.delay
	l := r.links[out]
	pidx := int(l.peerPort)*NumVCs + vc
	in := &f.routers[l.peer].q[pidx]
	if w.list < 0 {
		w.list = f.arrivalList(w.delay)
	}
	f.arrivals[w.list].Push(arrival{at: p.ArriveCycle, pos: in.tail, node: uint8(l.peer), idx: uint8(pidx)})
	f.due = min(f.due, p.ArriveCycle)
	in.push(p)
	f.HopBytes += uint64(p.Size)
	r.linkBusy[out] = cycle + w.busy
	q.pop()
	bit := uint64(1) << uint(idx)
	r.headOut[idx] = -1
	if r.wantQ[out] &^= bit; r.wantQ[out] == 0 {
		r.wantPorts &^= 1 << uint(out)
	}
	f.promote(r, idx, cycle)
	if idx < r.nlink {
		f.returnCredit(r, idx/NumVCs, idx%NumVCs)
	}
	r.credits[out*NumVCs+vc]--
	r.rrPort = (idx + 1) % r.nin
}

// arrivalList returns the index of the arrival list for wire delay delay,
// adding the list on the first send of its class. Packet sizes that
// serialize in the same number of cycles share a list, so there are at
// most as many lists as distinct sizes sent.
func (f *Fabric) arrivalList(delay uint64) int {
	for i := range f.arrivals {
		if f.arrivals[i].delay == delay {
			return i
		}
	}
	f.arrivals = append(f.arrivals, arrivalList{delay: delay}) //ar:exempt(hotpath) one list per serialization class, added on its first send
	return len(f.arrivals) - 1
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
	f.pendingCredits = append(f.pendingCredits, credRef{node: int32(up.node), idx: int32(up.port*NumVCs + vc)}) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
}
