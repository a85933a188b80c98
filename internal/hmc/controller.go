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

	pool     *network.Pool // the fabric's packet free list
	queue    sim.FIFO[*network.Packet]
	queueCap int
	nextTag  uint64
	pending  map[uint64]func(cycle uint64)

	// waker invalidates the engine's cached idle hint on external input
	// (Access from the cache hierarchy; coordinator packets via Inject
	// go straight to the fabric).
	waker *sim.Waker

	// Coordinator callbacks (nil outside Active-Routing schemes).
	OnGatherResp func(p *network.Packet, cycle uint64)
	OnActiveAck  func(p *network.Packet, cycle uint64)

	// Stats.
	Reads  uint64
	Writes uint64
}

// NewController builds controller index attached at node with the given
// entry cube, and registers it as the node's endpoint.
func NewController(index, node, entryCube int, geom mem.HMCGeometry, fabric *network.Fabric, queueCap int) *Controller {
	if queueCap <= 0 {
		queueCap = 32
	}
	c := &Controller{
		Index:     index,
		node:      node,
		entryCube: entryCube,
		geom:      geom,
		fabric:    fabric,
		queueCap:  queueCap,
		pool:      fabric.Pool,
		pending:   make(map[uint64]func(uint64)),
	}
	fabric.SetEndpoint(node, c)
	return c
}

// SetWaker implements sim.WakeSetter.
func (c *Controller) SetWaker(w *sim.Waker) { c.waker = w }

// Node implements core.Port.
func (c *Controller) Node() int { return c.node }

// EntryNode implements core.Port.
func (c *Controller) EntryNode() int { return c.entryCube }

// Inject implements core.Port: direct injection of coordinator packets.
func (c *Controller) Inject(p *network.Packet) bool {
	return c.fabric.Inject(c.node, p, 0)
}

var _ core.Port = (*Controller)(nil)

// Access enqueues a block read/write for the cache hierarchy; done fires at
// response delivery. It reports false on queue backpressure. Cube ids equal
// node ids in the memory network.
func (c *Controller) Access(pa mem.PAddr, write bool, done func(cycle uint64)) bool {
	if c.queue.Len() >= c.queueCap {
		return false
	}
	c.waker.Wake()
	kind := network.MemReadReq
	if write {
		kind = network.MemWriteReq
		c.Writes++
	} else {
		c.Reads++
	}
	p := c.pool.Get(kind, c.node, c.geom.CubeOf(pa))
	p.Addr = pa
	c.nextTag++
	p.Tag = uint64(c.Index)<<56 | c.nextTag
	c.pending[p.Tag] = done
	c.queue.Push(p)
	return true
}

// Deliver implements network.Endpoint for responses arriving from the
// memory network. Every case is a reply completion — the packet's single
// point of final consumption — so the packet is released here after its
// callback returns (callbacks must not retain it; they copy what they
// need).
func (c *Controller) Deliver(p *network.Packet, cycle uint64) bool {
	switch p.Kind {
	case network.MemReadResp, network.MemWriteAck:
		done, ok := c.pending[p.Tag]
		if !ok {
			panic(fmt.Sprintf("hmc: controller %d response with unknown tag %d", c.Index, p.Tag))
		}
		delete(c.pending, p.Tag)
		done(cycle)
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
	c.pool.Put(p)
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
func (c *Controller) Busy() bool { return c.queue.Len() > 0 || len(c.pending) > 0 }

// NextWork implements sim.Idler: Tick only drains the request queue;
// outstanding responses arrive via Deliver.
func (c *Controller) NextWork(now uint64) uint64 {
	if c.queue.Len() > 0 {
		return now
	}
	return sim.Never
}
