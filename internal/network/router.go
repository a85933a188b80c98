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
// A successful Deliver transfers packet ownership to the endpoint, which
// must release the packet to the fabric's Pool at its single point of final
// consumption (see Pool and DESIGN.md "Memory discipline").
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
	VCs           int    // virtual channels (request/response × 2 hop classes)
	QueueDepth    int    // packets per (port, VC) input queue
	InjDepth      int    // packets per injection queue
	LinkLatency   uint64 // link traversal latency, network cycles
	LinkBandwidth int    // bytes per network cycle per link
	RouterDelay   uint64 // router pipeline latency, network cycles
	ClockDiv      uint64 // simulator cycles per network cycle
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

type arrival struct {
	p     *Packet
	port  int
	vc    int
	cycle uint64
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

type router struct {
	node     int
	ports    int
	in       []packetRing // [port*VCs + vc]
	inj      []packetRing // [vc]
	up       []upstream   // [port] upstream node/port, node == -1 if unused
	credits  []int        // [port*VCs + vc] credits toward downstream input
	linkBusy []uint64     // [port] output link busy-until (simulator cycles)
	pending  arrivalWheel // in-flight packets heading to this router
	rrPort   int          // round-robin arbitration state

	// pendingMin is the earliest arrival cycle in pending (sim.Never when
	// empty), so the landing phase and the idle hint are O(1) while every
	// in-flight packet is still on the wire.
	pendingMin uint64

	// Precomputed topology views (the topology is immutable).
	links    []link // [port]
	routeTo  []int8 // [dst] output port, -1 for self
	hopClass []int8 // [dst]

	// Occupancy tracking so the tick phases touch only non-empty state.
	inCount  int    // packets across all input queues
	injCount int    // packets across all injection queues
	occ      uint64 // bit q set iff queue q non-empty; in queues at
	// [0, ports*VCs), injection queues at [ports*VCs, ports*VCs+VCs).
	// Valid only when maskable (nin <= 64); all our topologies qualify.
	maskable bool

	// Head metadata cache, maintained on every head change (push to an
	// empty queue, pop, landing): the arbitration loops compare small
	// integers instead of dereferencing the head packet per attempt.
	// headOut[q] is the output port the head routes to (-1 when the queue
	// is empty or the head ejects here); headVC[q] is its precomputed
	// downstream VC; ejectHead has bit q set iff the head's destination is
	// this node. wantCount[out] counts occupied queues whose head routes to
	// out, and wantMask mirrors it as a bitmask so forward() visits only
	// output ports some head actually wants.
	headOut   []int8 // [nin]
	headVC    []int8 // [nin]
	ejectHead uint64
	wantCount []uint16 // [ports]
	wantMask  uint64
}

// queueAt returns input queue idx (link inputs first, then injection).
func (r *router) queueAt(idx, vcs int) *packetRing {
	if idx >= r.ports*vcs {
		return &r.inj[idx-r.ports*vcs]
	}
	return &r.in[idx]
}

// updateHead refreshes the head metadata for queue idx.
func (f *Fabric) updateHead(r *router, idx int) {
	if old := r.headOut[idx]; old >= 0 {
		r.wantCount[old]--
		if r.wantCount[old] == 0 {
			r.wantMask &^= 1 << uint(old)
		}
	}
	q := r.queueAt(idx, f.Cfg.VCs)
	if q.len() == 0 {
		r.headOut[idx] = -1
		r.ejectHead &^= 1 << uint(idx)
		return
	}
	h := q.peek()
	if h.Dst == r.node {
		r.headOut[idx] = -1
		r.ejectHead |= 1 << uint(idx)
		return
	}
	r.ejectHead &^= 1 << uint(idx)
	out := r.routeTo[h.Dst]
	r.headOut[idx] = out
	r.headVC[idx] = int8(vcBase(h.Kind) + int(r.hopClass[h.Dst]))
	r.wantCount[out]++
	r.wantMask |= 1 << uint(out)
}

func (r *router) markIn(idx int)   { r.occ |= 1 << uint(idx) }
func (r *router) unmarkIn(idx int) { r.occ &^= 1 << uint(idx) }

// Fabric is one interconnection network instance: topology + routers +
// endpoints, plus the occupancy, credit and accounting state every router
// tick touches.
type Fabric struct {
	Topo Topology
	Cfg  Config

	// Pool is the fabric's packet free list. Components attached to the
	// fabric acquire and release packets here.
	Pool *Pool

	// Counters holds the per-kind delivery counters.
	Counters   *stats.Set
	deliveredH [kindCount]stats.Handle

	routers   []*router
	endpoints []Endpoint

	// Occupancy: inflight counts packets inside the fabric (queued at a
	// router or on a wire); queued is the subset in input/injection queues.
	inflight int
	queued   int

	// Router-level occupancy masks, bit = node id (valid while
	// nodeMaskable): busyNodes marks routers holding queued packets,
	// pendingNodes routers with in-flight arrivals.
	busyNodes    uint64
	pendingNodes uint64
	nodeMaskable bool

	// waker invalidates the engine's cached idle hint; Inject is the
	// fabric's only external entry point.
	waker *sim.Waker

	// pendingCredits defers credit returns to the start of the fabric's
	// next network cycle (1-cycle credit turnaround). The slice is reused;
	// steady state allocates nothing.
	pendingCredits []credRef

	wheelHorizon uint64 // arrival-wheel capacity in network cycles

	// clockMask enables mask/shift arithmetic for the (common) power-of-two
	// ClockDiv: cycle%ClockDiv == cycle&clockMask. clockShift is
	// log2(ClockDiv); both are valid only when clockPow2.
	clockMask  uint64
	clockShift uint
	clockPow2  bool

	// classMask[c] selects input-queue occupancy bits whose VC belongs to
	// ejection class c (vc/2 == c); shared by all routers since the bit
	// layout has stride Cfg.VCs.
	classMask [3]uint64

	// Counters for Fig 5.4 and the energy model.
	HopBytes     uint64
	Delivered    uint64
	Injected     uint64
	Movement     stats.DataMovement
	ejectStalled uint64
	nextID       uint64
}

// NewFabric builds a network over topo. Endpoints are attached later with
// SetEndpoint.
func NewFabric(topo Topology, cfg Config) *Fabric {
	if cfg.VCs <= 0 || cfg.QueueDepth <= 0 || cfg.LinkBandwidth <= 0 || cfg.ClockDiv == 0 {
		panic("network: invalid fabric config")
	}
	f := &Fabric{Topo: topo, Cfg: cfg, Pool: NewPool(), Counters: stats.NewSet()}
	for k := Kind(0); k < kindCount; k++ {
		f.deliveredH[k] = f.Counters.Register("delivered_" + k.String())
	}
	n := topo.Nodes()
	f.nodeMaskable = n <= 64
	if cfg.ClockDiv&(cfg.ClockDiv-1) == 0 {
		f.clockPow2 = true
		f.clockMask = cfg.ClockDiv - 1
		for d := cfg.ClockDiv; d > 1; d >>= 1 {
			f.clockShift++
		}
	}
	// Size the arrival wheels to the worst-case wire latency in network
	// cycles: serialization of the largest packet plus link and router
	// pipeline latency (+1 slot of slack).
	maxSer := (maxPacketBytes + cfg.LinkBandwidth - 1) / cfg.LinkBandwidth
	wheelSlots := maxSer + int(cfg.LinkLatency) + int(cfg.RouterDelay) + 1
	f.wheelHorizon = uint64(wheelSlots)
	f.routers = make([]*router, n)
	f.endpoints = make([]Endpoint, n)
	for i := 0; i < n; i++ {
		ports := topo.Ports(i)
		r := &router{
			node:       i,
			ports:      ports,
			in:         make([]packetRing, ports*cfg.VCs),
			inj:        make([]packetRing, cfg.VCs),
			up:         make([]upstream, ports),
			credits:    make([]int, ports*cfg.VCs),
			linkBusy:   make([]uint64, ports),
			pending:    newArrivalWheel(wheelSlots),
			pendingMin: sim.Never,
			links:      make([]link, ports),
			routeTo:    make([]int8, n),
			hopClass:   make([]int8, n),
			maskable:   ports*cfg.VCs+cfg.VCs <= 64,
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
		r.wantCount = make([]uint16, ports)
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
			r.routeTo[dst] = int8(topo.Route(i, dst))
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

// SetWaker implements sim.WakeSetter: Inject is the fabric's only external
// entry point; everything else advances through its own Tick.
func (f *Fabric) SetWaker(w *sim.Waker) { f.waker = w }

// NextID returns a fresh packet id (diagnostics only).
func (f *Fabric) NextID() uint64 {
	f.nextID++
	return f.nextID
}

// InjectionFree reports the free injection slots for p's VC at node n.
func (f *Fabric) InjectionFree(n int, p *Packet) int {
	vc := vcBase(p.Kind) // injection queues keyed by base class only
	return f.Cfg.InjDepth - f.routers[n].inj[vc].len()
}

// Inject offers packet p for injection at node n; it reports false when the
// injection queue is full. Src is forced to n.
func (f *Fabric) Inject(n int, p *Packet, cycle uint64) bool {
	if p.Dst < 0 || p.Dst >= f.Topo.Nodes() {
		panic(fmt.Sprintf("network: inject to invalid node %d", p.Dst))
	}
	if p.Dst == n {
		panic("network: inject to self; deliver locally instead")
	}
	r := f.routers[n]
	vc := vcBase(p.Kind)
	if r.inj[vc].len() >= f.Cfg.InjDepth {
		return false
	}
	p.Src = n
	if p.InjectCycle == 0 {
		p.InjectCycle = cycle
	}
	r.inj[vc].push(p)
	idx := r.ports*f.Cfg.VCs + vc
	r.markIn(idx)
	if r.inj[vc].len() == 1 {
		f.updateHead(r, idx)
	}
	r.injCount++
	f.busyNodes |= 1 << uint(n)
	f.waker.Wake()
	f.inflight++
	f.queued++
	f.Injected++
	f.account(p)
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

// Drained reports whether no packets remain anywhere in the fabric. It is a
// counter read; the full-scan equivalent is InFlightScan.
func (f *Fabric) Drained() bool { return f.inflight == 0 }

// InFlight counts packets currently inside the fabric (a counter read).
func (f *Fabric) InFlight() int { return f.inflight }

// InFlightScan recounts in-flight packets by walking every queue and wheel.
// It exists to cross-check the occupancy counters in tests.
func (f *Fabric) InFlightScan() int {
	n := 0
	for _, r := range f.routers {
		n += r.pending.len()
		for i := range r.in {
			n += r.in[i].len()
		}
		for i := range r.inj {
			n += r.inj[i].len()
		}
	}
	return n
}

// NextWork implements sim.Idler: the next clock edge while packets are
// queued at a router, or the earliest in-flight arrival when everything is
// on the wire.
func (f *Fabric) NextWork(now uint64) uint64 {
	if f.inflight == 0 {
		return sim.Never
	}
	if f.queued > 0 {
		return f.alignUp(now)
	}
	next := sim.Never
	if f.nodeMaskable {
		for m := f.pendingNodes; m != 0; {
			node := bits.TrailingZeros64(m)
			m &= m - 1
			if pm := f.routers[node].pendingMin; pm < next {
				next = pm
			}
		}
	} else {
		for _, r := range f.routers {
			if r.pendingMin < next {
				next = r.pendingMin
			}
		}
	}
	if next <= now {
		return f.alignUp(now)
	}
	return f.alignUp(next)
}

// alignUp rounds c up to the next network clock edge.
func (f *Fabric) alignUp(c uint64) uint64 {
	if f.clockPow2 {
		return (c + f.clockMask) &^ f.clockMask
	}
	div := f.Cfg.ClockDiv
	if rem := c % div; rem != 0 {
		return c + div - rem
	}
	return c
}

// onEdge reports whether c is a network clock edge.
func (f *Fabric) onEdge(c uint64) bool {
	if f.clockPow2 {
		return c&f.clockMask == 0
	}
	return c%f.Cfg.ClockDiv == 0
}

// netCycle converts a (clock-edge) simulator cycle to network cycles.
func (f *Fabric) netCycle(c uint64) uint64 {
	if f.clockPow2 {
		return c >> f.clockShift
	}
	return c / f.Cfg.ClockDiv
}

// Tick advances the fabric by one simulator cycle: apply deferred credits,
// then land, eject and forward at every router with work.
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
	// Phase 1: land arrivals into input queues (credits guaranteed space).
	// The scan compacts the ring in place; routers whose earliest arrival
	// is still on the wire are skipped entirely via pendingMin, and only
	// routers with any pending arrival are visited at all.
	if f.nodeMaskable {
		for m := f.pendingNodes; m != 0; {
			node := bits.TrailingZeros64(m)
			m &= m - 1
			f.land(f.routers[node], cycle)
		}
	} else {
		for _, r := range f.routers {
			f.land(r, cycle)
		}
	}
	// Phase 2: ejection — deliver packets that reached their destination.
	// Ejection handlers may synchronously inject new packets (marking more
	// routers busy), but injection never adds input-queue packets, so the
	// snapshot covers every router with ejectable state.
	if f.nodeMaskable {
		for m := f.busyNodes; m != 0; {
			node := bits.TrailingZeros64(m)
			m &= m - 1
			if r := f.routers[node]; r.inCount > 0 {
				f.eject(r, cycle)
			}
		}
	} else {
		for _, r := range f.routers {
			if r.inCount > 0 {
				f.eject(r, cycle)
			}
		}
	}
	// Phase 3: switch allocation and forwarding (forwarding only moves
	// packets onto pending wheels, so the snapshot is complete).
	if f.nodeMaskable {
		for m := f.busyNodes; m != 0; {
			node := bits.TrailingZeros64(m)
			m &= m - 1
			if r := f.routers[node]; r.inCount+r.injCount > 0 {
				f.forward(r, cycle)
			}
		}
	} else {
		for _, r := range f.routers {
			if r.inCount+r.injCount > 0 {
				f.forward(r, cycle)
			}
		}
	}
}

// land moves arrivals whose wire traversal has completed into their input
// queues by draining the due wheel buckets in time order.
func (f *Fabric) land(r *router, cycle uint64) {
	if r.pendingMin > cycle {
		return
	}
	nowNet := f.netCycle(cycle)
	for t := f.netCycle(r.pendingMin); t <= nowNet; t++ {
		b := r.pending.take(t)
		for i := range b {
			a := &b[i]
			idx := a.port*f.Cfg.VCs + a.vc
			r.in[idx].push(a.p)
			if r.in[idx].len() == 1 {
				f.updateHead(r, idx)
			}
			r.inCount++
			r.markIn(idx)
			f.queued++
		}
		r.pending.putBack(t, b)
	}
	f.busyNodes |= 1 << uint(r.node)
	if r.pending.len() == 0 {
		r.pendingMin = sim.Never
		f.pendingNodes &^= 1 << uint(r.node)
		return
	}
	for t := nowNet + 1; ; t++ {
		if len(r.pending.buckets[t&r.pending.mask]) > 0 {
			r.pendingMin = t * f.Cfg.ClockDiv
			return
		}
	}
}

// eject delivers destination packets at router r, higher traffic classes
// first (responses, then operand requests, then plain requests) so the
// drain order matches the deadlock-freedom argument. Each queue gets one
// delivery attempt per cycle; endpoint refusals backpressure the network.
// Ejection bandwidth is otherwise unbounded — a modeling simplification the
// simulated results depend on (see DESIGN.md). Only occupied (port, VC)
// queues are visited; the visit order (class descending, then port then VC
// ascending) matches the plain scan.
//
//ar:hotpath
func (f *Fabric) eject(r *router, cycle uint64) {
	ep := f.endpoints[r.node]
	for pass := 0; pass < 3; pass++ {
		class := 2 - pass // 2=response, 1=operand, 0=request
		if r.maskable {
			// Only queues whose cached head actually ejects here are
			// candidates; the plain scan's other visits were guaranteed
			// no-ops (head destined elsewhere).
			m := r.occ & f.classMask[class] & r.ejectHead
			for m != 0 {
				idx := bits.TrailingZeros64(m)
				m &= m - 1
				if idx >= r.ports*f.Cfg.VCs {
					break // injection-queue bits: not ejectable
				}
				f.ejectQueue(r, ep, idx, cycle)
			}
			continue
		}
		for port := 0; port < r.ports; port++ {
			for vc := 0; vc < f.Cfg.VCs; vc++ {
				if vc/2 != class {
					continue
				}
				f.ejectQueue(r, ep, port*f.Cfg.VCs+vc, cycle)
			}
		}
	}
}

// ejectQueue delivers at most one packet from input queue idx (each queue
// gets one ejection attempt per class pass, exactly like the plain scan);
// it reports whether a packet was popped. A successful Deliver is the
// ejection commit: ownership passes to the endpoint, which releases the
// packet to the fabric's pool at its final consumption point.
//
//ar:hotpath
func (f *Fabric) ejectQueue(r *router, ep Endpoint, idx int, cycle uint64) bool {
	q := &r.in[idx]
	if q.len() == 0 || q.peek().Dst != r.node {
		return false
	}
	p := q.peek()
	if ep == nil {
		panic(fmt.Sprintf("network: packet %s for node %d with no endpoint", p.Kind, r.node))
	}
	p.ArriveCycle = cycle
	// A successful Deliver transfers ownership — synchronous consumers
	// release the packet before returning — so everything the fabric still
	// needs must be read first.
	kind := p.Kind
	if !ep.Deliver(p, cycle) {
		f.ejectStalled++
		return false
	}
	q.pop()
	r.inCount--
	f.queued--
	f.inflight--
	if q.len() == 0 {
		r.unmarkIn(idx)
		if r.inCount+r.injCount == 0 {
			f.busyNodes &^= 1 << uint(r.node)
		}
	}
	f.updateHead(r, idx)
	f.returnCredit(r, idx/f.Cfg.VCs, idx%f.Cfg.VCs)
	f.Delivered++
	f.Counters.IncH(f.deliveredH[kind])
	return true
}

// forward performs output-port arbitration: for every output port pick one
// eligible head packet (round-robin over inputs including injection). Only
// occupied queues are visited, in exactly the round-robin order of the
// plain scan.
//
//ar:hotpath
func (f *Fabric) forward(r *router, cycle uint64) {
	nin := r.ports*f.Cfg.VCs + f.Cfg.VCs // link inputs + injection queues
	for out := 0; out < r.ports; out++ {
		// Skip output ports no head currently wants. The mask is re-read
		// every iteration because a pop can promote a new head wanting a
		// later port this same cycle.
		if r.wantMask>>uint(out)&1 == 0 {
			continue
		}
		if r.linkBusy[out] > cycle {
			continue
		}
		l := r.links[out]
		if !l.ok {
			continue
		}
		if r.maskable {
			// Visit occupied queues in (rrPort + k) % nin order: the bits
			// at and above rrPort first, then the wrapped-around low bits.
			// The cached headOut filters ineligible queues with one int8
			// compare before any packet dereference.
			high := r.occ & (^uint64(0) << uint(r.rrPort))
			low := r.occ &^ (^uint64(0) << uint(r.rrPort))
			done := false
			for _, m := range [2]uint64{high, low} {
				for m != 0 {
					idx := bits.TrailingZeros64(m)
					m &= m - 1
					if int(r.headOut[idx]) != out {
						continue
					}
					// Cached head VC: refuse on missing credits without
					// touching the packet at all.
					if r.credits[out*f.Cfg.VCs+int(r.headVC[idx])] <= 0 {
						continue
					}
					if f.tryForward(r, out, idx, l, cycle, nin) {
						done = true
						break
					}
				}
				if done {
					break
				}
			}
			continue
		}
		for k := 0; k < nin; k++ {
			idx := (r.rrPort + k) % nin
			if f.tryForward(r, out, idx, l, cycle, nin) {
				break
			}
		}
	}
}

// tryForward attempts to transmit the head of input queue idx through
// output port out; it reports whether a packet was sent. On the maskable
// path the caller has already matched the cached headOut, so the plain
// checks below only run for the non-maskable fallback (and stay correct
// either way).
func (f *Fabric) tryForward(r *router, out, idx int, l link, cycle uint64, nin int) bool {
	q := r.queueAt(idx, f.Cfg.VCs)
	injected := idx >= r.ports*f.Cfg.VCs
	if q.len() == 0 {
		return false
	}
	p := q.peek()
	if p.Dst == r.node {
		return false // ejection handles it
	}
	if int(r.routeTo[p.Dst]) != out {
		return false
	}
	vc := vcBase(p.Kind) + int(r.hopClass[p.Dst])
	if r.credits[out*f.Cfg.VCs+vc] <= 0 {
		return false
	}
	// Transmit.
	q.pop()
	if q.len() == 0 {
		r.unmarkIn(idx)
	}
	f.updateHead(r, idx)
	if injected {
		r.injCount--
	} else {
		r.inCount--
		f.returnCredit(r, idx/f.Cfg.VCs, idx%f.Cfg.VCs)
	}
	if r.inCount+r.injCount == 0 {
		f.busyNodes &^= 1 << uint(r.node)
	}
	f.queued--
	r.credits[out*f.Cfg.VCs+vc]--
	ser := uint64((p.Size + f.Cfg.LinkBandwidth - 1) / f.Cfg.LinkBandwidth)
	busy := ser * f.Cfg.ClockDiv
	r.linkBusy[out] = cycle + busy
	arrive := cycle + (ser+f.Cfg.LinkLatency+f.Cfg.RouterDelay)*f.Cfg.ClockDiv
	p.Hops++
	f.HopBytes += uint64(p.Size)
	if ser+f.Cfg.LinkLatency+f.Cfg.RouterDelay >= f.wheelHorizon {
		panic("network: arrival beyond wheel horizon")
	}
	peer := f.routers[l.peer]
	peer.pending.push(f.netCycle(arrive), arrival{p: p, port: l.peerPort, vc: vc, cycle: arrive})
	if arrive < peer.pendingMin {
		peer.pendingMin = arrive
	}
	f.pendingNodes |= 1 << uint(l.peer)
	r.rrPort = (idx + 1) % nin
	return true
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

// DebugQueues renders non-empty queue occupancy with head packet info
// (debug tooling).
func (f *Fabric) DebugQueues() string {
	out := ""
	for _, r := range f.routers {
		for port := 0; port < r.ports; port++ {
			for vc := 0; vc < f.Cfg.VCs; vc++ {
				q := &r.in[port*f.Cfg.VCs+vc]
				if q.len() > 0 {
					h := q.peek()
					out += fmt.Sprintf("node %d in[p%d vc%d] len=%d head=%s dst=%d\n", r.node, port, vc, q.len(), h.Kind, h.Dst)
				}
			}
		}
		for vc := 0; vc < f.Cfg.VCs; vc++ {
			if r.inj[vc].len() > 0 {
				h := r.inj[vc].peek()
				out += fmt.Sprintf("node %d inj[vc%d] len=%d head=%s dst=%d\n", r.node, vc, r.inj[vc].len(), h.Kind, h.Dst)
			}
		}
		if r.pending.len() > 0 {
			out += fmt.Sprintf("node %d pending=%d\n", r.node, r.pending.len())
		}
	}
	return out
}
