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

	// msgPool is the machine's coherence-message free list; a message
	// retires into it at its single point of final consumption.
	msgPool *cache.MsgPool

	// memTags holds one memory-transaction tag counter per tile (tags are
	// tile-scoped: tile<<40 | counter).
	memTags []uint64

	// IPC sampling.
	lastRetired uint64
	ipcTrace    []stats.IPCPoint

	// busyChecks holds one O(1) drain probe per component; lastBusy
	// memoizes the index that most recently reported busy so the common
	// done() poll is a single check.
	busyChecks []func() bool
	lastBusy   int
}

// never aliases the sim.Idler "quiescent until external input" sentinel.
const never = sim.Never

// tileHub is the NoC endpoint at one mesh tile, demultiplexing coherence
// messages to the tile's components.
type tileHub struct {
	sys        *System
	tile       int
	pendingMem map[uint64]func(cycle uint64)
}

// Deliver implements network.Endpoint for the NoC. An accepted packet has
// served its purpose as a message wrapper and is released here (the NoC
// packet's single point of final consumption); the payload message travels
// on under the Msg ownership contract.
func (h *tileHub) Deliver(p *network.Packet, cycle uint64) bool {
	m, ok := p.Meta.(*cache.Msg)
	if !ok {
		panic(fmt.Sprintf("system: NoC packet without coherence payload at tile %d", h.tile))
	}
	if !h.deliverMsg(m, cycle) {
		return false
	}
	p.Meta = nil
	h.sys.noc.Pool.Put(p)
	return true
}

// deliverMsg demultiplexes a coherence message. Acceptance (true) transfers
// message ownership: the L1/L2 release it after their handle() commit,
// while the hub's own terminal cases (back-inval done, memory traffic)
// consume the message synchronously and release it here.
func (h *tileHub) deliverMsg(m *cache.Msg, cycle uint64) bool {
	s := h.sys
	switch m.Type {
	case cache.MsgGetS, cache.MsgGetX, cache.MsgPutM, cache.MsgInvAck,
		cache.MsgFetchResp, cache.MsgBackInvalQ:
		return s.l2s[h.tile].Deliver(m, cycle)
	case cache.MsgData, cache.MsgInval, cache.MsgFetch, cache.MsgFetchInv:
		return s.l1s[h.tile].Deliver(m, cycle)
	case cache.MsgBackInvalD:
		s.mis[h.tile].OnBackInvalDone(m.Tag)
		s.msgPool.Put(m)
		return true
	case cache.MsgMemRead, cache.MsgMemWrite:
		for _, mc := range s.mcs {
			if mc.tile == h.tile {
				if !mc.deliver(m, cycle) {
					return false
				}
				s.msgPool.Put(m)
				return true
			}
		}
		panic(fmt.Sprintf("system: memory message at non-MC tile %d", h.tile))
	case cache.MsgMemResp:
		done, ok := h.pendingMem[m.Tag]
		if !ok {
			panic(fmt.Sprintf("system: memory response with unknown tag %d at tile %d", m.Tag, h.tile))
		}
		delete(h.pendingMem, m.Tag)
		done(cycle)
		s.msgPool.Put(m)
		return true
	default:
		panic(fmt.Sprintf("system: unroutable message %s at tile %d", m.Type, h.tile))
	}
}

// mcPort bridges an MC tile to the memory backend (a DDR channel or an HMC
// controller). Its retry outbox is drained by head index instead of
// re-slicing so the steady state allocates nothing.
type mcPort struct {
	sys     *System
	tile    int
	index   int
	access  func(pa mem.PAddr, write bool, done func(uint64)) bool
	outbox  []mcOut
	outHead int
	waker   *sim.Waker
}

// SetWaker implements sim.WakeSetter: the only external input is a refused
// response send queued from a memory completion callback.
func (mc *mcPort) SetWaker(w *sim.Waker) { mc.waker = w }

type mcOut struct {
	dst int
	m   *cache.Msg
}

func (mc *mcPort) queued() int { return len(mc.outbox) - mc.outHead }

func (mc *mcPort) deliver(m *cache.Msg, cycle uint64) bool {
	write := m.Type == cache.MsgMemWrite
	from, tag, block := m.From, m.Tag, m.Block
	return mc.access(m.Block, write, func(cyc uint64) { //ar:exempt(hotpath) one completion closure per DRAM access; allocation is dwarfed by the access latency it tracks
		resp := mc.sys.msgPool.Get(cache.MsgMemResp, block, mc.tile)
		resp.Tag = tag
		if !mc.sys.sendFrom(mc.tile, from, resp) {
			mc.outbox = append(mc.outbox, mcOut{from, resp})
			mc.waker.Wake()
		}
	})
}

// NextWork implements sim.Idler: Tick only retries refused response sends.
func (mc *mcPort) NextWork(now uint64) uint64 {
	if mc.queued() > 0 {
		return now
	}
	return never
}

// Tick retries queued response sends in FIFO order.
//
//ar:hotpath
func (mc *mcPort) Tick(cycle uint64) {
	for mc.outHead < len(mc.outbox) {
		o := mc.outbox[mc.outHead]
		if !mc.sys.sendFrom(mc.tile, o.dst, o.m) {
			return
		}
		mc.outbox[mc.outHead] = mcOut{}
		mc.outHead++
	}
	mc.outbox = mc.outbox[:0]
	mc.outHead = 0
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

// NewWith builds a machine around an existing workload value.
func NewWith(cfg Config, wl workload.Workload) (*System, error) {
	s := &System{cfg: cfg, wl: wl, engine: sim.NewEngine(), msgPool: cache.NewMsgPool()}
	s.env = workload.NewEnv(cfg.Threads, cfg.Seed)
	wl.Init(s.env)

	// --- Host NoC: 4x4 mesh, every tile hosts a core+L1 and an L2 bank.
	meshTopo := network.NewMesh(4, nil)
	s.noc = network.NewFabric(meshTopo, cfg.NoC)
	tiles := meshTopo.Tiles()
	s.memTags = make([]uint64, tiles)
	s.hubs = make([]*tileHub, tiles)
	for t := 0; t < tiles; t++ {
		s.hubs[t] = &tileHub{sys: s, tile: t, pendingMem: make(map[uint64]func(uint64))}
		s.noc.SetEndpoint(t, s.hubs[t])
	}

	// --- Memory side.
	if cfg.Scheme == SchemeDRAM {
		s.dramCtrls = make([]*dram.Controller, cfg.DRAMGeom.Channels)
		for ch := range s.dramCtrls {
			s.dramCtrls[ch] = dram.NewController(ch, cfg.DRAMGeom, cfg.DRAMTiming, 32)
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
			s.hmcCtrls[i] = hmc.NewController(i, node, ctrlCubes[i], cfg.HMCGeom, s.memnet, 32)
			ports[i] = s.hmcCtrls[i]
		}
		if cfg.Scheme.Active() {
			s.coord = core.NewCoordinator(cfg.Scheme.Policy(), cfg.HMCGeom, ports, s.env.Store, s.memnet.Pool, cfg.CoordQueue)
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

	// --- Memory controller ports on the NoC corners.
	s.mcs = make([]*mcPort, 4)
	for i := range s.mcs {
		mc := &mcPort{sys: s, tile: mcTiles[i], index: i}
		if cfg.Scheme == SchemeDRAM {
			ctrl := s.dramCtrls[i]
			mc.access = func(pa mem.PAddr, write bool, done func(uint64)) bool {
				return ctrl.Access(pa, write, s.engine.Cycle(), done)
			}
		} else {
			ctrl := s.hmcCtrls[i]
			mc.access = func(pa mem.PAddr, write bool, done func(uint64)) bool {
				return ctrl.Access(pa, write, done)
			}
		}
		s.mcs[i] = mc
	}

	// --- Cache hierarchy.
	s.l2s = make([]*cache.L2Bank, tiles)
	for t := 0; t < tiles; t++ {
		tile := t
		memPort := func(block mem.PAddr, write bool, done func(uint64)) bool {
			var idx int
			if cfg.Scheme == SchemeDRAM {
				idx = cfg.DRAMGeom.ChannelOf(block)
			} else {
				idx = cfg.HMCGeom.CubeOf(block) * 4 / cfg.HMCGeom.Cubes
			}
			s.memTags[tile]++
			tag := uint64(tile)<<40 | s.memTags[tile]
			kind := cache.MsgMemRead
			if write {
				kind = cache.MsgMemWrite
			}
			m := s.msgPool.Get(kind, block, tile)
			m.Tag = tag
			if !s.sendFrom(tile, mcTiles[idx], m) {
				s.msgPool.Put(m)
				return false
			}
			s.hubs[tile].pendingMem[tag] = done
			return true
		}
		s.l2s[t] = cache.NewL2Bank(t, cfg.L2, s.senderFor(t), memPort, s.msgPool)
	}
	s.l1s = make([]*cache.L1, tiles)
	for t := 0; t < tiles; t++ {
		s.l1s[t] = cache.NewL1(t, cfg.L1, s.senderFor(t),
			func(block mem.PAddr) int { return cache.BankOf(block, tiles) }, s.msgPool)
	}

	// --- Message interfaces (Active-Routing schemes only).
	s.mis = make([]*MessageInterface, tiles)
	if cfg.Scheme.Active() {
		for t := 0; t < tiles; t++ {
			s.mis[t] = NewMessageInterface(t, s.senderFor(t), s.coord, s.msgPool, cfg.MIQueue, cfg.MIWindow)
		}
	}

	// --- Cores.
	streams := s.wl.Streams(cfg.Scheme.Mode())
	if len(streams) != cfg.Threads {
		return nil, fmt.Errorf("system: workload produced %d streams for %d threads", len(streams), cfg.Threads)
	}
	s.barrier = cpu.NewBarrier(cfg.Threads)
	barrier := s.barrier
	s.cores = make([]*cpu.Core, cfg.Threads)
	for i := range s.cores {
		var off cpu.OffloadPort
		if s.mis[i] != nil {
			off = s.mis[i]
		}
		s.cores[i] = cpu.NewCore(i, cfg.Core, streams[i], s.l1s[i], off, s.env.Store, s.env.AS, barrier)
	}

	s.register()
	return s, nil
}

// senderFor builds the NoC message sender for a tile. Same-tile messages
// bypass the network.
func (s *System) senderFor(tile int) cache.Sender {
	return func(dst int, m *cache.Msg) bool { return s.sendFrom(tile, dst, m) }
}

func (s *System) sendFrom(src, dst int, m *cache.Msg) bool {
	if src == dst {
		return s.hubs[dst].deliverMsg(m, s.engine.Cycle())
	}
	p := cache.PacketFor(s.noc.Pool, m, src, dst)
	if !s.noc.Inject(src, p, s.engine.Cycle()) {
		// The wrapper never entered the fabric; the caller keeps the
		// message and retries, so only the packet returns to the pool.
		p.Meta = nil
		s.noc.Pool.Put(p)
		return false
	}
	return true
}

// register wires every component into the tick order. Components are
// registered directly (not wrapped in sim.TickFunc) so the engine sees
// their sim.Idler hints; the drain probe for each is installed in the same
// pass, mirroring the old whole-machine done() scan order.
func (s *System) register() {
	for i, c := range s.cores {
		c := c
		s.engine.Register(fmt.Sprintf("core%d", i), c)
		s.busyChecks = append(s.busyChecks, func() bool { return !c.Finished() })
	}
	for i, l1 := range s.l1s {
		l1 := l1
		s.engine.Register(fmt.Sprintf("l1.%d", i), l1)
		s.busyChecks = append(s.busyChecks, l1.Busy)
	}
	for i, l2 := range s.l2s {
		l2 := l2
		s.engine.Register(fmt.Sprintf("l2.%d", i), l2)
		s.busyChecks = append(s.busyChecks, l2.Busy)
	}
	for i, mi := range s.mis {
		if mi != nil {
			mi := mi
			s.engine.Register(fmt.Sprintf("mi.%d", i), mi)
			s.busyChecks = append(s.busyChecks, mi.Busy)
		}
	}
	s.engine.Register("noc", s.noc)
	s.busyChecks = append(s.busyChecks, func() bool { return !s.noc.Drained() })
	for i, mc := range s.mcs {
		mc := mc
		s.engine.Register(fmt.Sprintf("mc.%d", i), mc)
		s.busyChecks = append(s.busyChecks, func() bool { return mc.queued() > 0 })
	}
	for i, d := range s.dramCtrls {
		d := d
		s.engine.Register(fmt.Sprintf("dram.%d", i), d)
		s.busyChecks = append(s.busyChecks, func() bool { return d.Banks.Pending() > 0 })
	}
	for i, h := range s.hmcCtrls {
		h := h
		s.engine.Register(fmt.Sprintf("hmcctrl.%d", i), h)
		s.busyChecks = append(s.busyChecks, h.Busy)
	}
	if s.coord != nil {
		s.engine.Register("coordinator", s.coord)
		s.busyChecks = append(s.busyChecks, s.coord.Busy)
	}
	if s.memnet != nil {
		s.engine.Register("memnet", s.memnet)
		s.busyChecks = append(s.busyChecks, func() bool { return !s.memnet.Drained() })
	}
	for i, c := range s.cubes {
		c := c
		s.engine.Register(fmt.Sprintf("cube%d", i), c)
		s.busyChecks = append(s.busyChecks, c.Busy)
	}
	s.engine.Register("ipc-sampler", ipcSampler{s})
	s.engine.Register("barrier-flush", barrierFlush{s.barrier})
}

// barrierFlush fires deferred barrier releases at the end of every cycle
// (the last slot in the tick order), so a crossing completed during cycle c
// resumes every waiter at c+1 regardless of tick-order position. It is a
// plain (non-cacheable) idler: the pending check is one length read.
type barrierFlush struct{ b *cpu.Barrier }

func (f barrierFlush) Tick(uint64) { f.b.Flush() }

func (f barrierFlush) NextWork(now uint64) uint64 {
	if f.b.Pending() {
		return now
	}
	return never
}

// ipcSampler adapts the Fig 5.8 IPC probe to the engine with an idle hint:
// its only work is on sampling boundaries.
type ipcSampler struct{ s *System }

func (p ipcSampler) Tick(cycle uint64) { p.s.sampleIPC(cycle) }

// SetWaker implements sim.WakeSetter trivially: the sampler's idle hint is
// a pure function of time, so its cached wake needs no invalidation.
func (p ipcSampler) SetWaker(*sim.Waker) {}

func (p ipcSampler) NextWork(now uint64) uint64 {
	iv := p.s.cfg.IPCSampleCycles
	if iv&(iv-1) == 0 { // power of two: avoid the hardware divide
		return (now + iv - 1) &^ (iv - 1)
	}
	if rem := now % iv; rem != 0 {
		return now + iv - rem
	}
	return now
}

// sampleIPC records the machine-wide IPC trace for Fig 5.8.
func (s *System) sampleIPC(cycle uint64) {
	if cycle == 0 || cycle%s.cfg.IPCSampleCycles != 0 {
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
	if s.lastBusy < len(s.busyChecks) && s.busyChecks[s.lastBusy]() {
		return false
	}
	for i, busy := range s.busyChecks {
		if busy() {
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
			mergeEngineStats(&r.Engine, are.Stats)
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

func mergeEngineStats(dst *core.EngineStats, src core.EngineStats) {
	dst.UpdatesCommitted += src.UpdatesCommitted
	dst.UpdatesForwarded += src.UpdatesForwarded
	dst.OperandReqsSent += src.OperandReqsSent
	dst.OperandBufStalls += src.OperandBufStalls
	dst.FlowTableStalls += src.FlowTableStalls
	dst.InjectStalls += src.InjectStalls
	dst.GatherReqs += src.GatherReqs
	dst.GatherResps += src.GatherResps
	dst.FlowsCompleted += src.FlowsCompleted
	dst.SingleOpBypasses += src.SingleOpBypasses
	dst.DecodedPackets += src.DecodedPackets
	dst.VaultAccessesSent += src.VaultAccessesSent
	if src.PeakOperandInUse > dst.PeakOperandInUse {
		dst.PeakOperandInUse = src.PeakOperandInUse
	}
}

// Engine exposes the simulation engine (tests and tooling).
func (s *System) Engine() *sim.Engine { return s.engine }

// Env exposes the workload environment (tests).
func (s *System) Env() *workload.Env { return s.env }

// Workload exposes the bound workload.
func (s *System) Workload() workload.Workload { return s.wl }
