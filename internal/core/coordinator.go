package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
)

// PortPolicy selects the memory-access port (HMC controller) that roots a
// flow's tree, distinguishing the three Active-Routing schemes of §5.1.
type PortPolicy int

// Port selection policies.
const (
	// PolicyStatic sends every flow through port 0 (the ART scheme).
	PolicyStatic PortPolicy = iota
	// PolicyThreadID interleaves ports by thread id (ARF-tid).
	PolicyThreadID
	// PolicyAddress picks the port nearest the first operand's cube
	// (ARF-addr).
	PolicyAddress
	// PolicyEnergyAware picks the port minimizing the summed hop count to
	// both operand cubes — the §6 "energy-aware scheduling" future-work
	// extension, trading tree balance for network energy.
	PolicyEnergyAware
)

// String names the policy.
func (p PortPolicy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyThreadID:
		return "tid"
	case PolicyAddress:
		return "addr"
	case PolicyEnergyAware:
		return "energy"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Port is one memory access port: an HMC controller edge node on the memory
// network. The hmc package implements it.
type Port interface {
	// Node is the controller's network node id.
	Node() int
	// EntryNode is the attached cube's network node id (the tree root).
	EntryNode() int
	// Inject offers a copy of p to the controller's router; false means
	// the injection queue is full.
	Inject(p network.Packet) bool
}

// UpdateCmd is an offloaded Update instruction after MI translation: all
// addresses are physical (§3.4.1 — offloads translate like normal
// loads/stores).
type UpdateCmd struct {
	ThreadID int
	Op       isa.ALUOp
	Src1     mem.PAddr
	Src2     mem.PAddr // 0 for single-operand ops
	Target   mem.PAddr
	Imm      float64 // OpConstAssign immediate
	// Count vectorizes the update over consecutive words (§6 granularity
	// extension); 0/1 = scalar.
	Count int
}

// GatherCmd is an offloaded Gather instruction. Once the flow's reduction
// has been written back, the coordinator passes ThreadID to its gather-done
// hook (the thread barrier of Gather(target, num_threads) releases).
type GatherCmd struct {
	ThreadID int
	Target   mem.PAddr
	Threads  int
}

// coordFlow is the runtime's view of one flow across the forest.
type coordFlow struct {
	op          isa.ALUOp
	target      mem.PAddr
	trees       []bool // per-port: has this port rooted a tree?
	threads     int
	gatherSent  bool
	pendingTree int
	partial     float64
	waiting     []int // thread ids fenced on the flow, in arrival order
}

// CoordStats counts coordinator activity.
type CoordStats struct {
	Updates        uint64
	Gathers        uint64
	ActiveStores   uint64
	FlowsComplete  uint64
	PortStalls     uint64 // cycles a port queue head could not inject
	EnqueueRejects uint64
}

// counters lists the CoordStats fields in snapshot order.
func (s *CoordStats) counters() []*uint64 {
	return []*uint64{&s.Updates, &s.Gathers, &s.ActiveStores, &s.FlowsComplete,
		&s.PortStalls, &s.EnqueueRejects}
}

// Coordinator is the Active-Routing runtime at the host's HMC controllers:
// it picks a port per flow (the scheme policy), keeps per-port FIFO command
// queues (so Gather packets can never overtake the Updates of their flow),
// implements the Gather thread barrier, combines the partial results of the
// up-to-four trees of a forest, and writes each flow's final value to its
// target address.
type Coordinator struct {
	policy   PortPolicy
	geom     mem.HMCGeometry
	ports    []Port
	store    *mem.Store
	queues   []sim.FIFO[network.Packet]
	queueCap int

	flows       map[mem.PAddr]*coordFlow
	pendingAcks map[uint64]*coordFlow // final write-back acks; nil value = plain active store
	nextTag     uint64

	// dist reports hop count from a port's entry cube to a cube
	// (PolicyEnergyAware); nil falls back to the address policy.
	dist func(port, cube int) int

	// gatherDone releases the fence of a thread waiting on a completed
	// flow.
	gatherDone func(tid int)
	// portReady tells a thread's MI that the port queue which refused its
	// update has popped; refused[port] lists the threads to tell.
	portReady func(tid int)
	refused   [][]int

	// waker invalidates the engine's cached idle hint on external input
	// (Enqueue* from the MIs, controller response callbacks).
	waker *sim.Waker

	Stats CoordStats
}

// NewCoordinator builds the runtime over the given ports; gatherDone
// receives the thread id of every Gather once its flow completes, and
// portReady the thread id of every refused EnqueueUpdate once the refusing
// port's queue pops.
func NewCoordinator(policy PortPolicy, geom mem.HMCGeometry, ports []Port, store *mem.Store, queueCap int,
	gatherDone, portReady func(tid int)) *Coordinator {
	return &Coordinator{
		policy:      policy,
		geom:        geom,
		ports:       ports,
		store:       store,
		queues:      make([]sim.FIFO[network.Packet], len(ports)),
		queueCap:    queueCap,
		flows:       make(map[mem.PAddr]*coordFlow),
		pendingAcks: make(map[uint64]*coordFlow),
		gatherDone:  gatherDone,
		portReady:   portReady,
		refused:     make([][]int, len(ports)),
	}
}

// SetWaker implements sim.Component.
func (c *Coordinator) SetWaker(w *sim.Waker) { c.waker = w }

// portFor applies the scheme's port selection policy.
func (c *Coordinator) portFor(cmd UpdateCmd) int {
	switch c.policy {
	case PolicyStatic:
		return 0
	case PolicyThreadID:
		return cmd.ThreadID % len(c.ports)
	case PolicyAddress:
		addr := cmd.Src1
		if addr == 0 {
			addr = cmd.Target
		}
		group := c.geom.CubeOf(addr) * len(c.ports) / c.geom.Cubes
		return group
	case PolicyEnergyAware:
		return c.energyPort(cmd)
	default:
		panic("core: unknown port policy")
	}
}

// SetDistanceFn installs the port-to-cube hop metric PolicyEnergyAware
// minimizes.
func (c *Coordinator) SetDistanceFn(dist func(port, cube int) int) { c.dist = dist }

// energyPort picks the port with the minimum summed hop distance to the
// operand cubes (ties break toward the lowest port id).
func (c *Coordinator) energyPort(cmd UpdateCmd) int {
	if c.dist == nil {
		addr := cmd.Src1
		if addr == 0 {
			addr = cmd.Target
		}
		return c.geom.CubeOf(addr) * len(c.ports) / c.geom.Cubes
	}
	best, bestCost := 0, int(^uint(0)>>1)
	for port := range c.ports {
		cost := 0
		if cmd.Src1 != 0 {
			cost += c.dist(port, c.geom.CubeOf(cmd.Src1))
		}
		if cmd.Src2 != 0 {
			cost += c.dist(port, c.geom.CubeOf(cmd.Src2))
		}
		if cost < bestCost {
			best, bestCost = port, cost
		}
	}
	return best
}

// flowFor returns (creating if needed) the runtime state for a target.
func (c *Coordinator) flowFor(target mem.PAddr, op isa.ALUOp) *coordFlow {
	f, ok := c.flows[target]
	if !ok {
		f = &coordFlow{
			op:      op,
			target:  target,
			trees:   make([]bool, len(c.ports)),
			partial: op.Identity(),
		}
		c.flows[target] = f
	}
	return f
}

// EnqueueUpdate accepts an Update command from a core's Message Interface;
// false means the chosen port queue is full and the MI must retry
// (offloading backpressure). The refusing port's next pop passes
// cmd.ThreadID to portReady.
func (c *Coordinator) EnqueueUpdate(cmd UpdateCmd, cycle uint64) bool {
	port := c.portFor(cmd)
	if !cmd.Op.Reducing() {
		// Active stores travel through the port nearest their destination
		// cube, independent of the tree policy.
		_, port = c.activeStoreRoute(cmd)
	}
	if c.queues[port].Len() >= c.queueCap {
		c.Stats.EnqueueRejects++
		c.refused[port] = append(c.refused[port], cmd.ThreadID) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across pops
		return false
	}
	var p network.Packet
	if cmd.Op.Reducing() {
		f := c.flowFor(cmd.Target, cmd.Op)
		if f.op == isa.OpNop {
			// The flow was created by an early Gather from another
			// thread; adopt the reduction op now.
			f.op = cmd.Op
			f.partial = cmd.Op.Identity()
		}
		if f.gatherSent {
			panic(fmt.Sprintf("core: update for target %#x after its gather", uint64(cmd.Target)))
		}
		f.trees[port] = true
		p = network.NewPacket(network.UpdateReq, c.ports[port].Node(), c.ports[port].EntryNode())
		p.Flow = network.FlowKey{Flow: uint64(cmd.Target), Tree: uint8(port)}
		p.Op = cmd.Op
		p.Src1, p.Src2, p.Target = cmd.Src1, cmd.Src2, cmd.Target
		p.Count = uint8(cmd.Count)
		c.Stats.Updates++
	} else {
		p = c.activeStorePacket(cmd, nil)
		c.Stats.ActiveStores++
	}
	p.InjectCycle = cycle
	c.queues[port].Push(p)
	c.waker.Wake()
	return true
}

// activeStoreRoute returns the destination cube and the nearest port for a
// mov/const_assign active store.
func (c *Coordinator) activeStoreRoute(cmd UpdateCmd) (dstCube, port int) {
	if cmd.Op == isa.OpMov {
		dstCube = c.geom.CubeOf(cmd.Src1)
	} else {
		dstCube = c.geom.CubeOf(cmd.Target)
	}
	return dstCube, dstCube * len(c.ports) / c.geom.Cubes
}

// activeStorePacket builds the mov/const_assign active-store packet; f is
// non-nil for flow final write-backs.
func (c *Coordinator) activeStorePacket(cmd UpdateCmd, f *coordFlow) network.Packet {
	dstCube, port := c.activeStoreRoute(cmd)
	// Cube ids equal their memory-network node ids.
	p := network.NewPacket(network.ActiveStoreReq, c.ports[port].Node(), dstCube)
	p.Op = cmd.Op
	p.Src1 = cmd.Src1
	p.Target = cmd.Target
	p.Value = cmd.Imm
	c.nextTag++
	p.Tag = c.nextTag
	c.pendingAcks[p.Tag] = f
	return p
}

// EnqueueGather accepts a Gather command. Commands are idempotent per
// thread; the flow completes (and wakes every waiter) after all
// cmd.Threads gathers arrive and the forest reduction finishes.
func (c *Coordinator) EnqueueGather(cmd GatherCmd, cycle uint64) bool {
	f := c.flowFor(cmd.Target, isa.OpNop)
	f.threads = cmd.Threads
	f.waiting = append(f.waiting, cmd.ThreadID)
	c.Stats.Gathers++
	if len(f.waiting) > f.threads {
		panic(fmt.Sprintf("core: %d gathers for target %#x with num_threads=%d",
			len(f.waiting), uint64(cmd.Target), f.threads))
	}
	if len(f.waiting) == f.threads {
		c.releaseGather(f, cycle)
	}
	return true
}

// EnqueueGather wakes the coordinator only through releaseGather (the
// gather barrier itself queues nothing until the last thread arrives).

// releaseGather fires the gather wave: one GatherReq down each live tree,
// queued behind that port's pending updates (FIFO order is the correctness
// argument for tree teardown — see DESIGN.md).
func (c *Coordinator) releaseGather(f *coordFlow, cycle uint64) {
	f.gatherSent = true
	c.waker.Wake()
	for port, live := range f.trees {
		if !live {
			continue
		}
		p := network.NewPacket(network.GatherReq, c.ports[port].Node(), c.ports[port].EntryNode())
		p.Flow = network.FlowKey{Flow: uint64(f.target), Tree: uint8(port)}
		p.Op = f.op
		p.InjectCycle = cycle
		c.queues[port].Push(p)
		f.pendingTree++
	}
	if f.pendingTree == 0 {
		// A flow with zero updates (possible for empty loop bounds)
		// completes immediately.
		c.finalize(f, cycle)
	}
}

// OnGatherResp folds one tree's partial result (delivered at a controller)
// into the flow's forest partial.
func (c *Coordinator) OnGatherResp(p *network.Packet, cycle uint64) {
	flow := mem.PAddr(p.Flow.Flow)
	f, ok := c.flows[flow]
	if !ok {
		panic(fmt.Sprintf("core: gather response for unknown flow %#x", uint64(flow)))
	}
	f.partial = f.op.Combine(f.partial, p.Value)
	f.pendingTree--
	if f.pendingTree < 0 {
		panic("core: more tree responses than live trees")
	}
	if f.pendingTree == 0 {
		c.finalize(f, cycle)
	}
}

// finalize writes the reduction back: the target's prior value is the
// reduction's initial accumulator, and the final value travels to the
// target's home cube as an active store.
func (c *Coordinator) finalize(f *coordFlow, cycle uint64) {
	final := f.op.Combine(c.store.ReadF64(f.target), f.partial)
	cmd := UpdateCmd{Op: isa.OpConstAssign, Target: f.target, Imm: final}
	p := c.activeStorePacket(cmd, f)
	p.InjectCycle = cycle
	_, port := c.activeStoreRoute(cmd)
	c.queues[port].Push(p)
	c.waker.Wake()
}

// OnActiveAck completes an active store; for flow write-backs it releases
// the flow's thread barrier.
func (c *Coordinator) OnActiveAck(p *network.Packet, cycle uint64) {
	f, ok := c.pendingAcks[p.Tag]
	if !ok {
		panic(fmt.Sprintf("core: active-store ack with unknown tag %d", p.Tag))
	}
	delete(c.pendingAcks, p.Tag)
	if f == nil {
		return // plain mov/const store
	}
	for _, tid := range f.waiting {
		c.gatherDone(tid)
	}
	delete(c.flows, f.target)
	c.Stats.FlowsComplete++
}

// NextWork implements sim.Component: Tick only drains the per-port
// command queues; flow completions and acks arrive through the controller
// callbacks.
func (c *Coordinator) NextWork(now uint64) uint64 {
	for port := range c.queues {
		if c.queues[port].Len() > 0 {
			return now
		}
	}
	return sim.Never
}

// Tick drains the per-port command queues into the network and tells the
// threads a drained port refused that it has room.
//
//ar:hotpath
func (c *Coordinator) Tick(cycle uint64) {
	for port := range c.queues {
		n := 0
		for ; n < 4 && c.queues[port].Len() > 0; n++ {
			if !c.ports[port].Inject(c.queues[port].Peek()) {
				c.Stats.PortStalls++
				break
			}
			c.queues[port].Pop()
		}
		if n > 0 && len(c.refused[port]) > 0 {
			for _, tid := range c.refused[port] {
				c.portReady(tid)
			}
			c.refused[port] = c.refused[port][:0]
		}
	}
}

// Busy reports whether any flow, queued command or outstanding ack remains.
func (c *Coordinator) Busy() bool {
	if len(c.flows) > 0 || len(c.pendingAcks) > 0 {
		return true
	}
	for port := range c.queues {
		if c.queues[port].Len() > 0 {
			return true
		}
	}
	return false
}

// LiveFlows reports the number of flows the runtime is tracking.
func (c *Coordinator) LiveFlows() int { return len(c.flows) }
