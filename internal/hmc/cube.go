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
	VaultAccesses uint64
}

// counters lists the CubeStats fields in snapshot order.
func (s *CubeStats) counters() []*uint64 {
	return []*uint64{&s.MemReads, &s.MemWrites, &s.OperandServes, &s.VaultAccesses}
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
	store  *mem.Store
	vaults []dram.BankSet
	are    *core.Engine

	staged sim.FIFO[cubeOp]
	outbox sim.FIFO[network.Packet]

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
	c := &Cube{ID: id, cfg: cfg, fabric: fabric, store: store}
	c.vaults = dram.NewBankSets(cfg.Geom.VaultsPerCube, cfg.Geom.BanksPerVault, cfg.Timing, cfg.VaultQueue, c.vaultDone)
	fabric.SetEndpoint(id, c)
	return c
}

// SetWaker implements sim.Component.
func (c *Cube) SetWaker(w *sim.Waker) { c.waker = w }

// AttachARE places an Active-Routing Engine on the cube's logic layer.
func (c *Cube) AttachARE(cfg core.EngineConfig) *core.Engine {
	c.are = core.NewEngine(c.ID, c.ID, cfg, c)
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

// NextWork implements sim.Component. The cube must tick while a response
// waits in its outbox; otherwise its next work is the earliest of its busy
// vaults' hints, its staged crossbar head's ready cycle and its ARE's hint.
// The first vault that reports now ends the scan: every hint is pure, so
// the vaults after it would not change the answer.
func (c *Cube) NextWork(now uint64) uint64 {
	if c.outbox.Len() > 0 {
		return now
	}
	next := sim.Never
	for m := c.vaultBusy; m != 0; m &= m - 1 {
		if next = min(next, c.vaults[bits.TrailingZeros64(m)].NextWork(now)); next <= now {
			return now
		}
	}
	if c.staged.Len() > 0 {
		next = min(next, c.staged.PtrAt(0).readyAt)
	}
	if c.are != nil {
		next = min(next, c.are.NextWork(now))
	}
	return max(next, now)
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
		// buffers, so they are never refused (deadlock freedom).
		if c.are == nil {
			panic(fmt.Sprintf("hmc: operand response at cube %d without an ARE", c.ID))
		}
		c.are.OperandResp(p.Tag, p.Value, cycle)
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
		return false
	}
	op.readyAt = cycle + c.cfg.XbarDelay
	c.staged.Push(op)
	return true
}

// stageMemAccess admits a block access. The stage paths copy the packet's
// fields into the staged operation; a refused stage leaves the packet with
// the fabric for a later re-offer.
func (c *Cube) stageMemAccess(p *network.Packet, cycle uint64) bool {
	kind := opMemRead
	if p.Kind == network.MemWriteReq {
		kind = opMemWrite
	}
	return c.stage(cycle, cubeOp{kind: kind, addr: p.Addr, src: int(p.Src), tag: p.Tag})
}

func (c *Cube) stageOperandRead(p *network.Packet, cycle uint64) bool {
	return c.stage(cycle, cubeOp{kind: opOperandRead, addr: p.Addr, src: int(p.Src), tag: p.Tag})
}

// stageActiveStore handles mov/const_assign stores. A mov whose source
// lives here but whose target lives elsewhere reads locally and forwards
// the value; the final write acks to the originating controller.
func (c *Cube) stageActiveStore(p *network.Packet, cycle uint64) bool {
	origin := int(p.Origin)
	if origin == 0 {
		origin = int(p.Src)
	}
	if p.Src1 != 0 { // mov: the source operand must be read first
		return c.stage(cycle, cubeOp{kind: opMovRead, addr: p.Src1,
			target: p.Target, tag: p.Tag, origin: origin})
	}
	// Value-carrying store (const_assign, flow write-back, forwarded mov).
	// The vault access targets the destination word.
	return c.stage(cycle, cubeOp{kind: opStoreWrite, addr: p.Target,
		target: p.Target, value: p.Value, tag: p.Tag, origin: origin})
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
		Write: write,
		Bank:  c.cfg.Geom.BankOf(pa),
		Row:   c.cfg.Geom.RowOf(pa),
		Token: uint64(tok),
	})
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
		resp := network.NewPacket(network.MemReadResp, c.ID, op.src)
		resp.Addr, resp.Tag = op.addr, op.tag
		c.outbox.Push(resp)
	case opMemWrite:
		c.Stats.MemWrites++
		ack := network.NewPacket(network.MemWriteAck, c.ID, op.src)
		ack.Addr, ack.Tag = op.addr, op.tag
		c.outbox.Push(ack)
	case opOperandRead:
		c.Stats.OperandServes++
		resp := network.NewPacket(network.OperandResp, c.ID, op.src)
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
		fwd := network.NewPacket(network.ActiveStoreReq, c.ID, c.cfg.Geom.CubeOf(op.target))
		fwd.Target, fwd.Value, fwd.Tag, fwd.Origin = op.target, v, op.tag, uint8(op.origin)
		c.outbox.Push(fwd)
	case opStoreWrite:
		c.store.WriteF64(op.target, op.value)
		ack := network.NewPacket(network.ActiveStoreAck, c.ID, op.origin)
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
			vault := &c.vaults[v]
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

// VaultReadTag implements core.Cube: an allocation-free local operand read
// whose completion is routed to the ARE via OperandResp(tag).
func (c *Cube) VaultReadTag(pa mem.PAddr, tag uint64) bool {
	return c.startVault(cubeOp{kind: opAREOperand, addr: pa, tag: tag})
}

// Inject implements core.Cube.
func (c *Cube) Inject(p network.Packet) bool {
	return c.fabric.Inject(c.ID, p, 0)
}

// CubeOf implements core.Cube.
func (c *Cube) CubeOf(pa mem.PAddr) int { return c.cfg.Geom.CubeOf(pa) }

// NodeOfCube implements core.Cube (cube ids are their node ids).
func (c *Cube) NodeOfCube(cube int) int { return cube }

// Nodes implements core.Cube.
func (c *Cube) Nodes() int { return c.fabric.Topo.Nodes() }

// NextHopToCube implements core.Cube.
func (c *Cube) NextHopToCube(cube int) int {
	return network.NextHop(c.fabric.Topo, c.ID, cube)
}
