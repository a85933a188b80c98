package hmc

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
)

// Controller is one HMC controller: the host-side bridge onto the memory
// network (Fig 3.1), attached by a SerDes edge link to its entry cube. It
// carries plain memory traffic for the cache hierarchy and serves as one of
// the coordinator's memory-access ports for Active-Routing offloads.
type Controller struct {
	Index     int // port index 0..3
	node      int // network node id (16 + Index)
	entryCube int
	geom      mem.HMCGeometry
	fabric    *network.Fabric

	queue       sim.FIFO[network.Packet]
	queueCap    int
	outstanding int                       // accesses accepted and not yet answered
	done        func(token, cycle uint64) // completion hook, set at construction

	// waker invalidates the engine's cached idle hint on external input
	// (Access from the cache hierarchy; coordinator packets via Inject
	// go straight to the fabric).
	waker *sim.Waker

	// Coordinator callbacks (nil outside Active-Routing schemes).
	OnGatherResp func(p *network.Packet, cycle uint64)
	OnActiveAck  func(p *network.Packet, cycle uint64)
}

// NewController builds controller index attached at node with the given
// entry cube, and registers it as the node's endpoint. done receives each
// Access's token when its response arrives.
func NewController(index, node, entryCube int, geom mem.HMCGeometry, fabric *network.Fabric, queueCap int, done func(token, cycle uint64)) *Controller {
	c := &Controller{
		Index:     index,
		node:      node,
		entryCube: entryCube,
		geom:      geom,
		fabric:    fabric,
		queueCap:  queueCap,
		done:      done,
	}
	fabric.SetEndpoint(node, c)
	return c
}

// SetWaker implements sim.Component.
func (c *Controller) SetWaker(w *sim.Waker) { c.waker = w }

// Node implements core.Port.
func (c *Controller) Node() int { return c.node }

// EntryNode implements core.Port.
func (c *Controller) EntryNode() int { return c.entryCube }

// Inject implements core.Port: direct injection of coordinator packets.
func (c *Controller) Inject(p network.Packet) bool {
	return c.fabric.Inject(c.node, p, 0)
}

var _ core.Port = (*Controller)(nil)

// Access enqueues a block read/write for the cache hierarchy. The packet
// carries token as its tag (the cache hierarchy's tags are unique per
// machine), and the done hook receives it back at response delivery. It
// reports false on queue backpressure. Cube ids equal node ids in the
// memory network.
func (c *Controller) Access(pa mem.PAddr, write bool, token uint64) bool {
	if c.queue.Len() >= c.queueCap {
		return false
	}
	c.waker.Wake()
	kind := network.MemReadReq
	if write {
		kind = network.MemWriteReq
	}
	p := network.NewPacket(kind, c.node, c.geom.CubeOf(pa))
	p.Addr = pa
	p.Tag = token
	c.outstanding++
	c.queue.Push(p)
	return true
}

// Deliver implements network.Endpoint for responses arriving from the
// memory network. Every case is a reply completion; the coordinator
// callbacks read the lent packet and keep nothing of it.
func (c *Controller) Deliver(p *network.Packet, cycle uint64) bool {
	switch p.Kind {
	case network.MemReadResp, network.MemWriteAck:
		if c.outstanding == 0 {
			panic(fmt.Sprintf("hmc: controller %d response with tag %d and no access outstanding", c.Index, p.Tag))
		}
		c.outstanding--
		c.done(p.Tag, cycle)
	case network.GatherResp:
		if c.OnGatherResp == nil {
			panic(fmt.Sprintf("hmc: controller %d gather response without coordinator", c.Index))
		}
		c.OnGatherResp(p, cycle)
	case network.ActiveStoreAck:
		if c.OnActiveAck == nil {
			panic(fmt.Sprintf("hmc: controller %d active ack without coordinator", c.Index))
		}
		c.OnActiveAck(p, cycle)
	default:
		panic(fmt.Sprintf("hmc: controller %d cannot handle packet kind %s", c.Index, p.Kind))
	}
	return true
}

// Tick drains the controller's request queue into the network.
//
//ar:hotpath
func (c *Controller) Tick(cycle uint64) {
	for n := 0; n < 4 && c.queue.Len() > 0; n++ {
		if !c.fabric.Inject(c.node, c.queue.Peek(), cycle) {
			return
		}
		c.queue.Pop()
	}
}

// Busy reports whether requests are queued or outstanding.
func (c *Controller) Busy() bool { return c.queue.Len() > 0 || c.outstanding > 0 }

// NextWork implements sim.Component: Tick only drains the request
// queue; outstanding responses arrive via Deliver.
func (c *Controller) NextWork(now uint64) uint64 {
	if c.queue.Len() > 0 {
		return now
	}
	return sim.Never
}
