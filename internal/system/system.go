package system

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/hmc"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Results carries everything the evaluation figures report for one run.
type Results struct {
	Scheme       Scheme
	Workload     string
	Cycles       uint64
	Instructions uint64
	IPC          float64

	// Fig 5.2: update roundtrip latency breakdown (ARE-cycle means).
	Breakdown stats.LatencyBreakdown
	// Fig 5.4: off-chip data movement split.
	Movement stats.DataMovement
	// Fig 5.3 heatmaps (per cube).
	UpdatesHeat *stats.Heatmap
	OperandHeat *stats.Heatmap
	StallHeat   *stats.Heatmap
	// Fig 5.5-5.7 energy model.
	Energy power.Breakdown
	PowerW power.Breakdown
	EDP    float64
	// Fig 5.8 aggregate IPC trace (cycle-windowed machine-wide sampler).
	IPCTrace []stats.IPCPoint
	// CoreIPC is each core's instruction-windowed IPC series (per-thread
	// phase traces; window = 2^14 instructions).
	CoreIPC [][]stats.IPCPoint

	Cache      cache.Stats
	Coord      core.CoordStats
	Engine     core.EngineStats
	CoreStats  cpu.Stats
	FlowPeak   int
	VaultAcc   uint64
	DRAMAcc    uint64
	NetHopByte uint64
}

// System is one assembled machine bound to one workload instance.
type System struct {
	cfg Config
	wl  workload.Workload
	env *workload.Env

	engine *sim.Engine
	noc    *network.Fabric
	memnet *network.Fabric

	cores []*cpu.Core
	l1s   []*cache.L1
	l2s   []*cache.L2Bank
	mis   []*MessageInterface
	hubs  []*tileHub
	mcs   []*mcPort

	dramCtrls []*dram.Controller
	hmcCtrls  []*hmc.Controller
	cubes     []*hmc.Cube
	coord     *core.Coordinator
	barrier   *cpu.Barrier

	// memTags holds one memory-transaction tag counter per tile (tags are
	// tile-scoped: tile<<tagTileShift | counter).
	memTags []uint64

	// IPC sampling.
	lastRetired uint64
	ipcTrace    []stats.IPCPoint

	// parts is the component table; lastBusy memoizes the row whose drain
	// probe most recently reported busy so the common done() poll is a
	// single check.
	parts    []part
	lastBusy int
}

// part is one row of the machine's component table. The table lists every
// registered component once; its order is the tick order, the drain-scan
// order and the checkpoint section order.
type part struct {
	// class and index name the row in diagnostics (sim.Engine.Register):
	// the class alone when index < 0, else the class then the index.
	class string
	index int
	comp  sim.Component
	// busy is the O(1) drain probe: true while the component holds work
	// the run must finish. nil: never busy.
	busy func() bool
	// snapBusy reports that Snapshot cannot capture the component now.
	// nil: never busy.
	snapBusy func() bool
	// state streams the component's checkpoint section. nil: stateless.
	state stateful
}

// stateful is a checkpointed component: State streams its section
// (DESIGN.md "Checkpointing").
type stateful interface{ State(s *sim.Stream) }

// never aliases the sim.Never "quiescent until external input" sentinel.
const never = sim.Never

// tagTileShift places the issuing tile above a per-tile counter in the
// memory-access and MI query tags, so a tag names the tile to answer.
const tagTileShift = 40

// tileHub is the NoC endpoint at one mesh tile, demultiplexing coherence
// messages to the tile's components.
type tileHub struct {
	sys  *System
	tile int
	mc   *mcPort // the tile's memory controller port; nil at non-MC tiles
}

// Deliver implements network.Endpoint for the NoC by unpacking the
// message; a refused packet stays in the fabric, which offers it again.
func (h *tileHub) Deliver(p *network.Packet, cycle uint64) bool {
	return h.deliverMsg(cache.MsgOf(p), cycle)
}

// deliverMsg demultiplexes a coherence message; false refuses it. A memory
// response completes its tag at the tile's L2 bank within this delivery.
func (h *tileHub) deliverMsg(m cache.Msg, cycle uint64) bool {
	s := h.sys
	switch m.Type {
	case cache.MsgGetS, cache.MsgGetX, cache.MsgPutM, cache.MsgInvAck,
		cache.MsgFetchResp, cache.MsgBackInvalQ:
		return s.l2s[h.tile].Deliver(m, cycle)
	case cache.MsgData, cache.MsgInval, cache.MsgFetch, cache.MsgFetchInv:
		return s.l1s[h.tile].Deliver(m, cycle)
	case cache.MsgBackInvalD:
		s.mis[h.tile].OnBackInvalDone(m.Tag)
	case cache.MsgMemRead, cache.MsgMemWrite:
		if h.mc == nil {
			panic(fmt.Sprintf("system: memory message at non-MC tile %d", h.tile))
		}
		return h.mc.deliver(m)
	case cache.MsgMemResp:
		s.l2s[h.tile].MemDone(m.Tag, cycle)
	default:
		panic(fmt.Sprintf("system: unroutable message %s at tile %d", m.Type, h.tile))
	}
	return true
}

// mcPort bridges an MC tile to the memory backend (a DDR channel or an HMC
// controller) by request tag, queueing refused response sends for retry. It
// keeps no per-access state: a tag names its requesting tile.
type mcPort struct {
	sys     *System
	tile    int
	backend interface { // *dram.Controller or *hmc.Controller
		Access(pa mem.PAddr, write bool, token uint64) bool
	}
	outbox sim.FIFO[uint64] // tags of refused response sends
	waker  *sim.Waker
}

// SetWaker implements sim.Component: the only external input is a refused
// response send queued from a memory completion.
func (mc *mcPort) SetWaker(w *sim.Waker) { mc.waker = w }

func (mc *mcPort) deliver(m cache.Msg) bool {
	return mc.backend.Access(m.Block, m.Type == cache.MsgMemWrite, m.Tag)
}

// respond sends tag's MsgMemResp to the tile the tag names.
func (mc *mcPort) respond(tag uint64) bool {
	return mc.sys.sendFrom(mc.tile, int(tag>>tagTileShift), cache.Msg{Type: cache.MsgMemResp, From: mc.tile, Tag: tag})
}

// complete is both backends' completion hook: it answers access tag with a
// MsgMemResp to the requesting bank, queueing the send when it is refused.
//
//ar:hotpath
func (mc *mcPort) complete(tag, cycle uint64) {
	if !mc.respond(tag) {
		mc.outbox.Push(tag)
		mc.waker.Wake()
	}
}

// NextWork implements sim.Component: Tick only retries refused response
// sends.
func (mc *mcPort) NextWork(now uint64) uint64 {
	if !mc.outbox.Empty() {
		return now
	}
	return never
}

// Tick retries queued response sends in FIFO order.
//
//ar:hotpath
func (mc *mcPort) Tick(cycle uint64) {
	for !mc.outbox.Empty() {
		if !mc.respond(mc.outbox.Peek()) {
			return
		}
		mc.outbox.Pop()
	}
}

// New builds a machine for cfg running the named workload at the given
// scale.
func New(cfg Config, wlName string, scale workload.Scale) (*System, error) {
	wl, err := workload.New(wlName, scale, cfg.Threads)
	if err != nil {
		return nil, err
	}
	return NewWith(cfg, wl)
}

// NewWith builds a machine around an existing workload value. It refuses a
// configuration Config.Validate rejects, so no component needs a default
// for a zero-valued field.
func NewWith(cfg Config, wl workload.Workload) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, wl: wl, engine: sim.NewEngine()}
	s.env = workload.NewEnv(cfg.Threads, cfg.Seed)
	wl.Init(s.env)

	// --- Host NoC: 4x4 mesh, every tile hosts a core+L1 and an L2 bank.
	meshTopo := network.NewMesh(4, nil)
	s.noc = network.NewFabric(meshTopo, cfg.NoC)
	tiles := meshTopo.Tiles()
	s.memTags = make([]uint64, tiles)
	s.hubs = make([]*tileHub, tiles)
	for t := 0; t < tiles; t++ {
		s.hubs[t] = &tileHub{sys: s, tile: t}
		s.noc.SetEndpoint(t, s.hubs[t])
	}

	// --- Memory controller ports on the NoC corners.
	s.mcs = make([]*mcPort, 4)
	for i := range s.mcs {
		s.mcs[i] = &mcPort{sys: s, tile: mcTiles[i]}
		s.hubs[mcTiles[i]].mc = s.mcs[i]
	}

	// --- Memory side.
	if cfg.Scheme == SchemeDRAM {
		s.dramCtrls = make([]*dram.Controller, cfg.DRAMGeom.Channels)
		for ch := range s.dramCtrls {
			s.dramCtrls[ch] = dram.NewController(cfg.DRAMGeom, cfg.DRAMTiming, 32, s.mcs[ch].complete)
			s.mcs[ch].backend = s.dramCtrls[ch]
		}
	} else {
		var topo network.Topology
		switch cfg.MemTopo {
		case TopoMesh:
			topo = network.NewMesh(4, ctrlCubes[:])
		default:
			topo = network.NewDragonfly(ctrlCubes[:])
		}
		s.memnet = network.NewFabric(topo, cfg.MemNet)
		s.cubes = make([]*hmc.Cube, cfg.HMCGeom.Cubes)
		for c := range s.cubes {
			s.cubes[c] = hmc.NewCube(c, cfg.Cube, s.memnet, s.env.Store)
			if cfg.Scheme.Active() {
				s.cubes[c].AttachARE(cfg.ARE)
			}
		}
		s.hmcCtrls = make([]*hmc.Controller, 4)
		ports := make([]core.Port, 4)
		for i := range s.hmcCtrls {
			node := cfg.HMCGeom.Cubes + i
			s.hmcCtrls[i] = hmc.NewController(i, node, ctrlCubes[i], cfg.HMCGeom, s.memnet, 32, s.mcs[i].complete)
			s.mcs[i].backend = s.hmcCtrls[i]
			ports[i] = s.hmcCtrls[i]
		}
		if cfg.Scheme.Active() {
			s.coord = core.NewCoordinator(cfg.Scheme.Policy(), cfg.HMCGeom, ports, s.env.Store, cfg.CoordQueue,
				func(tid int) { s.cores[tid].ReleaseFence() },
				func(tid int) { s.mis[tid].PortReady() })
			memTopo := topo
			s.coord.SetDistanceFn(func(port, cube int) int {
				entry := ctrlCubes[port]
				if entry == cube {
					return 0
				}
				return network.PathLen(memTopo, entry, cube)
			})
			for _, ctrl := range s.hmcCtrls {
				ctrl.OnGatherResp = s.coord.OnGatherResp
				ctrl.OnActiveAck = s.coord.OnActiveAck
			}
		}
	}

	// --- Cache hierarchy.
	s.l2s = make([]*cache.L2Bank, tiles)
	for tile := 0; tile < tiles; tile++ {
		memPort := func(block mem.PAddr, write bool) (uint64, bool) {
			var idx int
			if cfg.Scheme == SchemeDRAM {
				idx = cfg.DRAMGeom.ChannelOf(block)
			} else {
				idx = cfg.HMCGeom.CubeOf(block) * 4 / cfg.HMCGeom.Cubes
			}
			s.memTags[tile]++
			tag := uint64(tile)<<tagTileShift | s.memTags[tile]
			kind := cache.MsgMemRead
			if write {
				kind = cache.MsgMemWrite
			}
			m := cache.Msg{Type: kind, Block: block, From: tile, Tag: tag}
			return tag, s.sendFrom(tile, mcTiles[idx], m)
		}
		s.l2s[tile] = cache.NewL2Bank(tile, tiles, cfg.L2, s.senderFor(tile), memPort)
	}
	s.l1s = make([]*cache.L1, tiles)
	for t := 0; t < tiles; t++ {
		s.l1s[t] = cache.NewL1(t, cfg.L1, s.senderFor(t),
			func(block mem.PAddr) int { return cache.BankOf(block, tiles) },
			func(token uint64) { s.cores[t].MemDone(token) },
			func() { s.cores[t].PortReady() })
	}

	// --- Message interfaces (Active-Routing schemes only).
	s.mis = make([]*MessageInterface, tiles)
	if cfg.Scheme.Active() {
		for t := 0; t < tiles; t++ {
			s.mis[t] = NewMessageInterface(t, s.senderFor(t), s.coord, cfg.MIQueue, cfg.MIWindow,
				func() { s.cores[t].PortReady() })
		}
	}

	// --- Cores.
	streams := s.wl.Streams(cfg.Scheme.Mode())
	if len(streams) != cfg.Threads {
		return nil, fmt.Errorf("system: workload produced %d streams for %d threads", len(streams), cfg.Threads)
	}
	s.barrier = cpu.NewBarrier(cfg.Threads, func(tid int) { s.cores[tid].ReleaseFence() })
	barrier := s.barrier
	s.cores = make([]*cpu.Core, cfg.Threads)
	for i := range s.cores {
		var off cpu.OffloadPort
		if s.mis[i] != nil {
			off = s.mis[i]
		}
		s.cores[i] = cpu.NewCore(i, cfg.Core, streams[i], s.l1s[i], off, s.env.Store, s.env.AS, barrier)
	}

	s.parts = s.table()
	for _, p := range s.parts {
		s.engine.Register(p.class, p.index, p.comp)
	}
	return s, nil
}

// senderFor builds the NoC message sender for a tile. Same-tile messages
// bypass the network.
func (s *System) senderFor(tile int) cache.Sender {
	return func(dst int, m cache.Msg) bool { return s.sendFrom(tile, dst, m) }
}

func (s *System) sendFrom(src, dst int, m cache.Msg) bool {
	if src == dst {
		return s.hubs[dst].deliverMsg(m, s.engine.Cycle())
	}
	// On refusal the caller keeps its copy of the message and retries.
	return s.noc.Inject(src, cache.PacketFor(m, src, dst), s.engine.Cycle())
}

// table lists the machine's components once, in tick order. The order is
// part of the machine definition: it fixes the tick order, the drain scan
// and the checkpoint section order, so reordering rows changes the
// snapshot bytes.
func (s *System) table() []part {
	not := func(ready func() bool) func() bool { return func() bool { return !ready() } }
	var t []part
	add := func(class string, index int, c sim.Component, busy, snapBusy func() bool, state stateful) {
		t = append(t, part{class, index, c, busy, snapBusy, state})
	}
	for i, c := range s.cores {
		add("core", i, c, not(c.Finished), not(c.Snapshotable), c)
	}
	for i, l1 := range s.l1s {
		add("l1.", i, l1, l1.Busy, l1.Busy, l1)
	}
	for i, l2 := range s.l2s {
		add("l2.", i, l2, l2.Busy, l2.Busy, l2)
	}
	// An MI or HMC controller holds state only while busy: queued
	// commands, an outstanding query or memory access. A quiescent one
	// holds none, so neither has a section.
	for i, mi := range s.mis {
		if mi != nil {
			add("mi.", i, mi, mi.Busy, mi.Busy, nil)
		}
	}
	nocBusy := not(s.noc.Drained)
	add("noc", -1, s.noc, nocBusy, nocBusy, s.noc)
	for i, mc := range s.mcs {
		queued := func() bool { return !mc.outbox.Empty() }
		add("mc.", i, mc, queued, queued, nil)
	}
	for i, d := range s.dramCtrls {
		pending := func() bool { return d.Banks.Pending() > 0 }
		add("dram.", i, d, pending, pending, d.Banks)
	}
	for i, h := range s.hmcCtrls {
		add("hmcctrl.", i, h, h.Busy, h.Busy, nil)
	}
	if s.coord != nil {
		add("coordinator", -1, s.coord, s.coord.Busy, not(s.coord.SnapshotReady), s.coord)
	}
	if s.memnet != nil {
		memnetBusy := not(s.memnet.Drained)
		add("memnet", -1, s.memnet, memnetBusy, memnetBusy, s.memnet)
	}
	for i, c := range s.cubes {
		add("cube", i, c, c.Busy, not(c.SnapshotReady), c)
	}
	// The sampler's state (the IPC trace) sits in the snapshot header. The
	// barrier ticks last, so a crossing completed during a cycle releases
	// its waiters at the end of that cycle and every waiter resumes on the
	// next one; a checkpoint waits for that release.
	add("ipc-sampler", -1, ipcSampler{s}, nil, nil, nil)
	add("barrier-flush", -1, s.barrier, nil, s.barrier.Pending, s.barrier)
	return t
}

// ipcSampler adapts the Fig 5.8 IPC probe to the engine with an idle hint:
// its only work is on sampling boundaries.
type ipcSampler struct{ s *System }

func (p ipcSampler) Tick(cycle uint64) { p.s.sampleIPC(cycle) }

// SetWaker implements sim.Component trivially: the sampler's idle hint is
// a pure function of time, so its cached wake needs no invalidation.
func (p ipcSampler) SetWaker(*sim.Waker) {}

func (p ipcSampler) NextWork(now uint64) uint64 {
	mask := p.s.cfg.IPCSampleCycles - 1 // a power of two minus one
	return (now + mask) &^ mask
}

// sampleIPC records the machine-wide IPC trace for Fig 5.8.
func (s *System) sampleIPC(cycle uint64) {
	if cycle == 0 || cycle&(s.cfg.IPCSampleCycles-1) != 0 {
		return
	}
	var total uint64
	for _, c := range s.cores {
		total += c.Stats.Retired
	}
	delta := total - s.lastRetired
	s.lastRetired = total
	s.ipcTrace = append(s.ipcTrace, stats.IPCPoint{
		Insts: total,
		IPC:   float64(delta) / float64(s.cfg.IPCSampleCycles),
	})
}

// done reports whether the machine has fully drained. Every probe is an
// O(1) counter read, and the component that blocked completion last time is
// re-checked first, so the per-cycle poll is O(1) until the machine is
// nearly drained (the full sweep then confirms quiescence once).
func (s *System) done() bool {
	if busy := s.parts[s.lastBusy].busy; busy != nil && busy() {
		return false
	}
	for i := range s.parts {
		if busy := s.parts[i].busy; busy != nil && busy() {
			s.lastBusy = i
			return false
		}
	}
	return true
}

// Run simulates to completion, verifies the workload's final memory state,
// and returns the collected results.
func (s *System) Run() (*Results, error) {
	return s.RunCtx(context.Background())
}

// RunCtx is Run with cooperative cancellation: the kernel polls ctx on an
// amortized stride (sim.RunUntilCtx), so a cancelled or expired context
// abandons a running simulation within a bounded number of steps instead
// of burning its full cycle budget. Cancellation never produces partial
// Results — the return is (nil, error wrapping ctx.Err()).
func (s *System) RunCtx(ctx context.Context) (*Results, error) {
	// The budget is relative to the current clock so a run resumed from a
	// checkpoint times out at the same absolute cycle as a straight-through
	// run (remainingBudget == MaxCycles on a fresh machine).
	if _, err := s.engine.RunUntilCtx(ctx, s.done, s.remainingBudget()); err != nil {
		return nil, fmt.Errorf("system: %s/%s: %w", s.cfg.Scheme, s.wl.Name(), err)
	}
	if err := s.wl.Verify(); err != nil {
		return nil, fmt.Errorf("system: %s/%s verification: %w", s.cfg.Scheme, s.wl.Name(), err)
	}
	return s.collect(), nil
}

// collect gathers every figure's statistics.
func (s *System) collect() *Results {
	r := &Results{
		Scheme:   s.cfg.Scheme,
		Workload: s.wl.Name(),
		Cycles:   s.engine.Cycle(),
		IPCTrace: s.ipcTrace,
	}
	for _, c := range s.cores {
		r.CoreIPC = append(r.CoreIPC, append([]stats.IPCPoint(nil), c.IPC.Points...))
		r.Instructions += c.Stats.Retired
		r.CoreStats.Retired += c.Stats.Retired
		r.CoreStats.Loads += c.Stats.Loads
		r.CoreStats.Stores += c.Stats.Stores
		r.CoreStats.Updates += c.Stats.Updates
		r.CoreStats.Gathers += c.Stats.Gathers
		r.CoreStats.Computes += c.Stats.Computes
		r.CoreStats.ROBFullCycles += c.Stats.ROBFullCycles
		r.CoreStats.OffloadStalls += c.Stats.OffloadStalls
		r.CoreStats.MemStalls += c.Stats.MemStalls
	}
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	for _, l1 := range s.l1s {
		r.Cache.Merge(l1.Stats)
	}
	for _, l2 := range s.l2s {
		r.Cache.Merge(l2.Stats)
	}
	ncubes := s.cfg.HMCGeom.Cubes
	r.UpdatesHeat = stats.NewHeatmap("update distribution", ncubes, 4)
	r.OperandHeat = stats.NewHeatmap("operand distribution", ncubes, 4)
	r.StallHeat = stats.NewHeatmap("operand buffer stalls", ncubes, 4)
	for i, cube := range s.cubes {
		r.VaultAcc += cube.Stats.VaultAccesses
		r.OperandHeat.Add(i, cube.Stats.OperandServes)
		if are := cube.ARE(); are != nil {
			r.UpdatesHeat.Add(i, are.Stats.UpdatesCommitted)
			r.OperandHeat.Add(i, are.Stats.VaultAccessesSent)
			r.StallHeat.Add(i, are.Stats.OperandBufStalls)
			r.Breakdown.Merge(are.Breakdown)
			r.Engine.Merge(are.Stats)
			if are.Flows.Peak > r.FlowPeak {
				r.FlowPeak = are.Flows.Peak
			}
		}
	}
	if s.coord != nil {
		r.Coord = s.coord.Stats
	}
	if s.memnet != nil {
		r.Movement = s.memnet.Movement
		r.NetHopByte = s.memnet.HopBytes
	}
	for _, d := range s.dramCtrls {
		r.DRAMAcc += d.Banks.Stats.Reads + d.Banks.Stats.Writes
		// Synthesize the equivalent request/response byte movement so Fig
		// 5.4 can compare DRAM against the packetized schemes.
		r.Movement.NormReq += d.Banks.Stats.Reads*network.MemReadReqBytes +
			d.Banks.Stats.Writes*network.MemWriteReqBytes
		r.Movement.NormResp += d.Banks.Stats.Reads*network.MemReadRespBytes +
			d.Banks.Stats.Writes*network.MemWriteAckBytes
	}
	e := power.Energy(power.Inputs{
		L1Accesses:   r.Cache.L1Accesses,
		L2Accesses:   r.Cache.L2Accesses,
		HMCAccesses:  r.VaultAcc,
		DRAMAccesses: r.DRAMAcc,
		NetHopBytes:  r.NetHopByte,
		Cycles:       r.Cycles,
	})
	r.Energy = e
	r.PowerW = power.Power(e, r.Cycles, 2)
	r.EDP = power.EDP(e, r.Cycles, 2)
	return r
}

// Engine exposes the simulation engine (tests and tooling).
func (s *System) Engine() *sim.Engine { return s.engine }

// Env exposes the workload environment (tests).
func (s *System) Env() *workload.Env { return s.env }

// Workload exposes the bound workload.
func (s *System) Workload() workload.Workload { return s.wl }
