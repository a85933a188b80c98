// Package hmc models the Hybrid Memory Cube side of Table 4.1: cubes with
// 32 vault controllers over 8-bank DRAM stacks, an intra-cube crossbar on
// the logic layer, SerDes-linked membership in the memory network, and the
// HMC controllers that bridge the host to it. Each cube optionally hosts an
// Active-Routing Engine (internal/core) on its logic layer.
package hmc

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
)

// CubeConfig sizes one cube.
type CubeConfig struct {
	Geom       mem.HMCGeometry
	Timing     dram.Timing
	VaultQueue int    // requests per vault controller queue
	XbarDelay  uint64 // intra-cube crossbar latency, simulator cycles
	XbarRate   int    // crossbar operations per cycle
}

// DefaultCubeConfig returns the Table 4.1 cube.
func DefaultCubeConfig() CubeConfig {
	return CubeConfig{
		Geom:       mem.DefaultHMCGeometry(),
		Timing:     dram.DefaultVaultTiming(),
		VaultQueue: 16,
		XbarDelay:  8, // 4 crossbar cycles at 1 GHz under a 2 GHz core clock
		XbarRate:   4,
	}
}

// CubeStats counts per-cube activity (operand serves feed the Fig 5.3
// operand-distribution heatmap; vault accesses feed the energy model).
type CubeStats struct {
	MemReads      uint64
	MemWrites     uint64
	OperandServes uint64
	ActiveStores  uint64
	VaultAccesses uint64
	XbarStalls    uint64
}

// cubeOpKind discriminates the staged intra-cube operations.
type cubeOpKind uint8

const (
	opMemRead     cubeOpKind = iota // block read -> MemReadResp to src
	opMemWrite                      // block write -> MemWriteAck to src
	opOperandRead                   // remote operand fetch -> OperandResp to src
	opMovRead                       // active-store mov: read source, then write/forward
	opStoreWrite                    // value-carrying active store -> write + ack
	opAREOperand                    // ARE-local operand read -> OperandResp(tag) into the ARE
)

// cubeOp is one staged intra-cube operation: a plain value carrying
// everything its vault completion needs, so the staging pipeline and the
// vault round trip allocate nothing (the historical implementation built a
// chain of three closures per access).
type cubeOp struct {
	kind    cubeOpKind
	readyAt uint64
	addr    mem.PAddr // vault address accessed
	target  mem.PAddr // active-store destination
	value   float64
	tag     uint64
	src     int
	origin  int
}

// Cube is one memory cube: a memory-network endpoint with vaults and an
// optional ARE.
type Cube struct {
	ID     int
	cfg    CubeConfig
	fabric *network.Fabric
	pool   *network.Pool // the fabric's packet free list
	store  *mem.Store
	vaults []*dram.BankSet
	are    *core.Engine

	staged sim.FIFO[cubeOp]
	outbox sim.FIFO[*network.Packet]

	// pend is the token table for in-flight vault accesses: the dram layer
	// hands the token back at completion and vaultDone dispatches on the
	// recorded op. Slots are recycled through pendFree.
	pend     []cubeOp
	pendFree []uint32

	// vaultWork counts accesses enqueued at any vault and not yet
	// completed, so Busy and the idle hints are counter reads instead of a
	// 32-vault scan; vaultBusy tracks which vaults hold work (bit v) so the
	// Tick fan-out touches only occupied vaults.
	vaultWork int
	vaultBusy uint64

	// waker invalidates the engine's cached idle hint on external input
	// (Deliver; everything else advances through the cube's own Tick).
	waker *sim.Waker

	Stats CubeStats
}

// NewCube builds cube id attached to the fabric. The ARE is attached later
// (AttachARE) for Active-Routing schemes.
func NewCube(id int, cfg CubeConfig, fabric *network.Fabric, store *mem.Store) *Cube {
	c := &Cube{ID: id, cfg: cfg, fabric: fabric, pool: fabric.Pool, store: store}
	c.vaults = make([]*dram.BankSet, cfg.Geom.VaultsPerCube)
	done := c.vaultDone // one completion hook shared by every vault
	for v := range c.vaults {
		c.vaults[v] = dram.NewBankSet(cfg.Geom.BanksPerVault, cfg.Timing, cfg.VaultQueue)
		c.vaults[v].Done = done
	}
	fabric.SetEndpoint(id, c)
	return c
}

// SetWaker implements sim.WakeSetter.
func (c *Cube) SetWaker(w *sim.Waker) { c.waker = w }

// AttachARE places an Active-Routing Engine on the cube's logic layer,
// sharing the fabric's packet pool.
func (c *Cube) AttachARE(cfg core.EngineConfig) *core.Engine {
	c.are = core.NewEngine(c.ID, c.ID, cfg, c, c.pool)
	return c.are
}

// ARE returns the attached engine (nil without Active-Routing).
func (c *Cube) ARE() *core.Engine { return c.are }

// Busy reports whether any vault, staged op, outbox entry or ARE state
// remains in flight.
func (c *Cube) Busy() bool {
	if c.staged.Len() > 0 || c.outbox.Len() > 0 || c.vaultWork > 0 {
		return true
	}
	return c.are != nil && c.are.Busy()
}

// NextWork implements sim.Idler. The cube must tick while any vault access,
// response or ARE work is outstanding; with only a not-yet-ready crossbar
// head staged, the next work is its ready cycle.
func (c *Cube) NextWork(now uint64) uint64 {
	if c.vaultWork > 0 || c.outbox.Len() > 0 {
		return now
	}
	next := sim.Never
	if c.staged.Len() > 0 {
		if head := c.staged.Peek().readyAt; head > now {
			next = head
		} else {
			return now
		}
	}
	if c.are != nil {
		if w := c.are.NextWork(now); w < next {
			next = w
		}
	}
	return next
}

// Deliver implements network.Endpoint: demultiplex arriving packets to the
// vaults or the ARE. Refusals backpressure the network.
func (c *Cube) Deliver(p *network.Packet, cycle uint64) bool {
	c.waker.Wake()
	switch p.Kind {
	case network.UpdateReq, network.GatherReq, network.GatherResp:
		if c.are == nil {
			panic(fmt.Sprintf("hmc: active packet %s at cube %d without an ARE", p.Kind, c.ID))
		}
		return c.are.Deliver(p, cycle)
	case network.MemReadReq, network.MemWriteReq:
		return c.stageMemAccess(p, cycle)
	case network.OperandReq:
		return c.stageOperandRead(p, cycle)
	case network.OperandResp:
		// Remote operand values feed the ARE directly: they free operand
		// buffers, so they are never refused (deadlock freedom). The packet
		// is fully consumed here.
		if c.are == nil {
			panic(fmt.Sprintf("hmc: operand response at cube %d without an ARE", c.ID))
		}
		c.are.OperandResp(p.Tag, p.Value, cycle)
		c.pool.Put(p)
		return true
	case network.ActiveStoreReq:
		return c.stageActiveStore(p, cycle)
	default:
		panic(fmt.Sprintf("hmc: cube %d cannot handle packet kind %s", c.ID, p.Kind))
	}
}

// stage admits an operation into the crossbar pipeline; the staging queue
// is bounded to model crossbar input buffering.
func (c *Cube) stage(cycle uint64, op cubeOp) bool {
	if c.staged.Len() >= 4*c.cfg.XbarRate {
		c.Stats.XbarStalls++
		return false
	}
	op.readyAt = cycle + c.cfg.XbarDelay
	c.staged.Push(op)
	return true
}

// stageMemAccess admits a block access. The packet's fields are copied into
// the staged operation, so a successful stage is the packet's final
// consumption point and releases it; a refused stage leaves the packet with
// the fabric for a later re-offer.
func (c *Cube) stageMemAccess(p *network.Packet, cycle uint64) bool {
	kind := opMemRead
	if p.Kind == network.MemWriteReq {
		kind = opMemWrite
	}
	ok := c.stage(cycle, cubeOp{kind: kind, addr: p.Addr, src: p.Src, tag: p.Tag})
	if ok {
		c.pool.Put(p)
	}
	return ok
}

func (c *Cube) stageOperandRead(p *network.Packet, cycle uint64) bool {
	ok := c.stage(cycle, cubeOp{kind: opOperandRead, addr: p.Addr, src: p.Src, tag: p.Tag})
	if ok {
		c.pool.Put(p)
	}
	return ok
}

// stageActiveStore handles mov/const_assign stores. A mov whose source
// lives here but whose target lives elsewhere reads locally and forwards
// the value; the final write acks to the originating controller. As with
// the other stage paths, the packet's fields are copied at admission and
// the packet released.
func (c *Cube) stageActiveStore(p *network.Packet, cycle uint64) bool {
	origin := p.Origin
	if origin == 0 {
		origin = p.Src
	}
	var ok bool
	if p.Src1 != 0 { // mov: the source operand must be read first
		ok = c.stage(cycle, cubeOp{kind: opMovRead, addr: p.Src1,
			target: p.Target, tag: p.Tag, origin: origin})
	} else {
		// Value-carrying store (const_assign, flow write-back, forwarded
		// mov). The vault access targets the destination word.
		ok = c.stage(cycle, cubeOp{kind: opStoreWrite, addr: p.Target,
			target: p.Target, value: p.Value, tag: p.Tag, origin: origin})
	}
	if ok {
		c.pool.Put(p)
	}
	return ok
}

// startVault enqueues op's DRAM access at the owning vault, recording the
// op in the token table for completion dispatch. Writes are opMemWrite and
// opStoreWrite; every other kind reads.
func (c *Cube) startVault(op cubeOp) bool {
	pa := op.addr
	write := op.kind == opMemWrite || op.kind == opStoreWrite
	v := c.cfg.Geom.VaultOf(pa)
	var tok uint32
	if n := len(c.pendFree); n > 0 {
		tok = c.pendFree[n-1]
		c.pendFree = c.pendFree[:n-1]
	} else {
		tok = uint32(len(c.pend))
		c.pend = append(c.pend, cubeOp{}) //ar:exempt(hotpath) pend table grows to the in-flight high-water mark, then stops
	}
	c.pend[tok] = op
	ok := c.vaults[v].Enqueue(dram.Request{
		Addr:  pa,
		Write: write,
		Bank:  c.cfg.Geom.BankOf(pa),
		Row:   c.cfg.Geom.RowOf(pa),
		Token: uint64(tok),
	}, 0)
	if !ok {
		c.pendFree = append(c.pendFree, tok) //ar:exempt(hotpath) free list reaches steady-state capacity; append stops growing after warm-up
		return false
	}
	c.vaultWork++
	c.vaultBusy |= 1 << uint(v)
	c.Stats.VaultAccesses++
	return true
}

// vaultDone dispatches one completed vault access (the dram bank set hands
// the token back at data-transfer completion).
func (c *Cube) vaultDone(token uint64, cycle uint64) {
	op := c.pend[token]
	c.pendFree = append(c.pendFree, uint32(token))
	c.vaultWork--
	switch op.kind {
	case opMemRead:
		c.Stats.MemReads++
		resp := c.pool.Get(network.MemReadResp, c.ID, op.src)
		resp.Addr, resp.Tag = op.addr, op.tag
		c.outbox.Push(resp)
	case opMemWrite:
		c.Stats.MemWrites++
		ack := c.pool.Get(network.MemWriteAck, c.ID, op.src)
		ack.Addr, ack.Tag = op.addr, op.tag
		c.outbox.Push(ack)
	case opOperandRead:
		c.Stats.OperandServes++
		resp := c.pool.Get(network.OperandResp, c.ID, op.src)
		resp.Addr, resp.Tag, resp.Value = op.addr, op.tag, c.store.ReadF64(op.addr&^7)
		c.outbox.Push(resp)
	case opMovRead:
		v := c.store.ReadF64(op.addr &^ 7)
		if c.cfg.Geom.CubeOf(op.target) == c.ID {
			// Local write path for a mov whose source and target share this
			// cube: stage the write behind the crossbar again, immediately
			// ready (readyAt 0) but in FIFO order.
			c.staged.Push(cubeOp{kind: opStoreWrite, addr: op.target,
				target: op.target, value: v, tag: op.tag, origin: op.origin})
			return
		}
		fwd := c.pool.Get(network.ActiveStoreReq, c.ID, c.cfg.Geom.CubeOf(op.target))
		fwd.Target, fwd.Value, fwd.Tag, fwd.Origin = op.target, v, op.tag, op.origin
		c.outbox.Push(fwd)
	case opStoreWrite:
		c.store.WriteF64(op.target, op.value)
		c.Stats.ActiveStores++
		ack := c.pool.Get(network.ActiveStoreAck, c.ID, op.origin)
		ack.Tag = op.tag
		c.outbox.Push(ack)
	case opAREOperand:
		c.are.OperandResp(op.tag, c.store.ReadF64(op.addr&^7), cycle)
	}
}

// Tick advances the cube: vaults, crossbar staging, outbox and ARE.
//
//ar:hotpath
func (c *Cube) Tick(cycle uint64) {
	if c.vaultWork > 0 {
		// Visit only vaults holding work (bit v of vaultBusy), and among
		// those only vaults whose own idle hint says the tick would do
		// anything (a vault waiting out DRAM latency is skipped exactly).
		for m := c.vaultBusy; m != 0; {
			v := bits.TrailingZeros64(m)
			m &= m - 1
			vault := c.vaults[v]
			if vault.NextWork(cycle) > cycle {
				continue
			}
			vault.Tick(cycle)
			if vault.Pending() == 0 {
				c.vaultBusy &^= 1 << uint(v)
			}
		}
	}
	// Crossbar: admit staged operations into vaults strictly in order
	// (head-of-line blocking). FIFO order here is load-bearing: it keeps a
	// mov's source read ahead of a later store to the same address when
	// both arrived in order from the network.
	n := 0
	for c.staged.Len() > 0 && n < c.cfg.XbarRate {
		op := c.staged.Peek()
		if op.readyAt > cycle || !c.startVault(op) {
			break
		}
		c.staged.Pop()
		n++
	}
	// Drain response outbox into the network.
	for c.outbox.Len() > 0 {
		if !c.fabric.Inject(c.ID, c.outbox.Peek(), cycle) {
			break
		}
		c.outbox.Pop()
	}
	if c.are != nil {
		c.are.Tick(cycle)
	}
}

// --- core.Cube interface -------------------------------------------------

// VaultAccess implements core.Cube for the attached ARE (and tests): the
// callback-based path, kept for interface compatibility. The engine's hot
// local-operand path uses VaultReadTag instead.
func (c *Cube) VaultAccess(pa mem.PAddr, write bool, value float64, onDone func(v float64, cycle uint64)) bool {
	v := c.cfg.Geom.VaultOf(pa)
	ok := c.vaults[v].Enqueue(dram.Request{
		Addr:  pa,
		Write: write,
		Bank:  c.cfg.Geom.BankOf(pa),
		Row:   c.cfg.Geom.RowOf(pa),
		OnDone: func(done uint64) {
			c.vaultWork--
			if write {
				c.store.WriteF64(pa, value)
				onDone(0, done)
				return
			}
			onDone(c.store.ReadF64(pa&^7), done)
		},
	}, 0)
	if !ok {
		return false
	}
	c.vaultWork++
	c.vaultBusy |= 1 << uint(v)
	c.Stats.VaultAccesses++
	return true
}

// VaultReadTag implements core.TagReader: an allocation-free local operand
// read whose completion is routed to the ARE via OperandResp(tag).
func (c *Cube) VaultReadTag(pa mem.PAddr, tag uint64) bool {
	return c.startVault(cubeOp{kind: opAREOperand, addr: pa, tag: tag})
}

// Inject implements core.Cube.
func (c *Cube) Inject(p *network.Packet) bool {
	return c.fabric.Inject(c.ID, p, 0)
}

// CubeOf implements core.Cube.
func (c *Cube) CubeOf(pa mem.PAddr) int { return c.cfg.Geom.CubeOf(pa) }

// NodeOfCube implements core.Cube (cube ids are their node ids).
func (c *Cube) NodeOfCube(cube int) int { return cube }

// NextHopToCube implements core.Cube.
func (c *Cube) NextHopToCube(cube int) int {
	return network.NextHop(c.fabric.Topo, c.ID, cube)
}

// DebugState reports internal queue depths (debug tooling).
func (c *Cube) DebugState() (staged, outbox, vaultPending int) {
	for _, v := range c.vaults {
		vaultPending += v.Pending()
	}
	return c.staged.Len(), c.outbox.Len(), vaultPending
}
