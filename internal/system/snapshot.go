package system

import (
	"context"
	"fmt"
	"hash/fnv"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Machine-state checkpointing (DESIGN.md "Checkpointing").
//
// A snapshot is taken only at a quiescent point: a cycle boundary where
// every cross-component transient has drained — networks empty, caches
// idle, no outstanding memory accesses, ARE and
// coordinator holding only mid-construction flow state, cores blocked
// solely on fences or timed compute completions. At such a point the
// machine is plain data: no closure needs serializing, because every live
// callback is recoverable from structure (compute completions from the
// ROB timed-call list, fence wakes from recorded fence provenance).
//
// Restore never rebases the clock: the engine restarts at the snapshot
// cycle (StartAt), so absolute-cycle state — DRAM freeAt/activatedAt,
// link busy horizons, core lastSeen, timed-call deadlines — serializes
// verbatim.

// snapshotVersion is the wire-format version of a system snapshot blob.
// Bump on any layout change; restore rejects other versions.
const snapshotVersion = 1

// Snapshotable reports whether the machine is at a quiescent point where
// Snapshot can capture it exactly.
func (s *System) Snapshotable() bool {
	if !s.noc.SnapshotReady() {
		return false
	}
	if s.memnet != nil && !s.memnet.SnapshotReady() {
		return false
	}
	for _, l1 := range s.l1s {
		if l1.Busy() {
			return false
		}
	}
	for _, l2 := range s.l2s {
		if l2.Busy() {
			return false
		}
	}
	for _, mi := range s.mis {
		if mi != nil && (mi.Busy() || len(mi.byTag) > 0) {
			return false
		}
	}
	for _, h := range s.hubs {
		if len(h.pendingMem) > 0 {
			return false
		}
	}
	for _, mc := range s.mcs {
		if mc.queued() > 0 {
			return false
		}
	}
	for _, d := range s.dramCtrls {
		if d.Banks.Pending() > 0 {
			return false
		}
	}
	for _, h := range s.hmcCtrls {
		if !h.SnapshotReady() {
			return false
		}
	}
	for _, c := range s.cubes {
		if !c.SnapshotReady() {
			return false
		}
	}
	if s.coord != nil && !s.coord.SnapshotReady() {
		return false
	}
	if s.barrier.Pending() {
		return false
	}
	for _, c := range s.cores {
		if !c.Snapshotable() {
			return false
		}
	}
	return true
}

// Snapshot appends the machine's complete quiescent-point state to buf
// (allocation-free when buf has capacity) and returns the extended slice.
// The caller must have checked Snapshotable.
func (s *System) Snapshot(buf []byte) []byte {
	cycle := s.engine.Cycle()
	e := &sim.Enc{B: buf}
	e.Tag("arsys")
	e.Int(snapshotVersion)
	e.U64(cycle)
	e.U64(s.cfg.PrefixHash(cycle))
	e.Int(int(s.cfg.Scheme))
	e.Str(s.wl.Name())
	e.Int(s.cfg.Threads)
	e.Int(len(s.hubs))
	e.U64(s.env.Rand.State())
	s.env.Store.Snapshot(e)
	for _, t := range s.memTags {
		e.U64(t)
	}
	e.U64(s.lastRetired)
	e.Int(len(s.ipcTrace))
	for _, p := range s.ipcTrace {
		e.U64(p.Insts)
		e.F64(p.IPC)
	}
	e.U64(s.barrier.Crossings)
	for _, c := range s.cores {
		c.Snapshot(e)
	}
	for _, l1 := range s.l1s {
		l1.Snapshot(e)
	}
	for _, l2 := range s.l2s {
		l2.Snapshot(e)
	}
	for _, mi := range s.mis {
		if mi != nil {
			e.Tag("mi")
			e.U64(mi.nextTag)
			e.U64(mi.QueriesSent)
			e.U64(mi.UpdatesSent)
			e.U64(mi.GathersSent)
			e.U64(mi.QueueFullRej)
		}
	}
	s.noc.Snapshot(e)
	for _, d := range s.dramCtrls {
		d.Banks.Snapshot(e)
	}
	for _, h := range s.hmcCtrls {
		h.Snapshot(e)
	}
	if s.coord != nil {
		s.coord.Snapshot(e)
	}
	if s.memnet != nil {
		s.memnet.Snapshot(e)
	}
	for _, c := range s.cubes {
		c.Snapshot(e)
	}
	// Integrity trailer over the encoded region: the structural validation
	// in the decoders catches torn or truncated blobs, but a bit flip in a
	// raw payload (a stored float, a page byte) would otherwise decode as a
	// different-but-valid snapshot.
	e.U64(snapshotSum(e.B[len(buf):]))
	return e.B
}

// snapshotSum digests an encoded snapshot region for the integrity
// trailer.
func snapshotSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// Restore rebuilds a freshly constructed, never-run machine from a
// snapshot blob. The machine must have been built with a prefix-compatible
// configuration (PrefixHash at the snapshot cycle matches) and the same
// workload. On success the clock stands at the snapshot cycle and
// RunCtx continues bit-identically to the run the snapshot was taken from.
func (s *System) Restore(data []byte) error {
	if s.engine.Cycle() != 0 {
		return fmt.Errorf("system: restore target has already run (cycle %d)", s.engine.Cycle())
	}
	if len(data) < 8 {
		return fmt.Errorf("system: snapshot too short (%d bytes)", len(data))
	}
	body := data[:len(data)-8]
	if want := sim.NewDec(data[len(data)-8:]).U64(); snapshotSum(body) != want {
		return fmt.Errorf("system: snapshot integrity checksum mismatch")
	}
	d := sim.NewDec(body)
	d.Tag("arsys")
	if v := d.Int(); d.Err() == nil && v != snapshotVersion {
		return fmt.Errorf("system: snapshot version %d, this build reads %d", v, snapshotVersion)
	}
	cycle := d.U64()
	prefix := d.U64()
	if d.Err() == nil && prefix != s.cfg.PrefixHash(cycle) {
		return fmt.Errorf("system: snapshot prefix hash %016x does not match this configuration at cycle %d", prefix, cycle)
	}
	if sc := d.Int(); d.Err() == nil && sc != int(s.cfg.Scheme) {
		return fmt.Errorf("system: snapshot scheme %d, machine %d", sc, int(s.cfg.Scheme))
	}
	if name := d.Str(); d.Err() == nil && name != s.wl.Name() {
		return fmt.Errorf("system: snapshot workload %q, machine %q", name, s.wl.Name())
	}
	if th := d.Int(); d.Err() == nil && th != s.cfg.Threads {
		return fmt.Errorf("system: snapshot threads %d, machine %d", th, s.cfg.Threads)
	}
	if tiles := d.Int(); d.Err() == nil && tiles != len(s.hubs) {
		return fmt.Errorf("system: snapshot tiles %d, machine %d", tiles, len(s.hubs))
	}
	if err := d.Err(); err != nil {
		return err
	}
	s.env.Rand.SetState(d.U64())
	s.env.Store.Restore(d)
	for i := range s.memTags {
		s.memTags[i] = d.U64()
	}
	s.lastRetired = d.U64()
	npts := d.Len(1<<30, "ipc trace points")
	s.ipcTrace = s.ipcTrace[:0]
	for i := 0; i < npts && d.Err() == nil; i++ {
		s.ipcTrace = append(s.ipcTrace, stats.IPCPoint{Insts: d.U64(), IPC: d.F64()})
	}
	s.barrier.Crossings = d.U64()
	for _, c := range s.cores {
		c.Restore(d)
	}
	for _, l1 := range s.l1s {
		l1.Restore(d)
	}
	for _, l2 := range s.l2s {
		l2.Restore(d)
	}
	for _, mi := range s.mis {
		if mi != nil {
			d.Tag("mi")
			mi.nextTag = d.U64()
			mi.QueriesSent = d.U64()
			mi.UpdatesSent = d.U64()
			mi.GathersSent = d.U64()
			mi.QueueFullRej = d.U64()
		}
	}
	s.noc.Restore(d)
	for _, dc := range s.dramCtrls {
		dc.Banks.Restore(d)
	}
	for _, h := range s.hmcCtrls {
		h.Restore(d)
	}
	if s.coord != nil {
		s.coord.Restore(d)
	}
	if s.memnet != nil {
		s.memnet.Restore(d)
	}
	for _, c := range s.cubes {
		c.Restore(d)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("system: %d trailing bytes after snapshot", n)
	}

	// Re-arm fences in core-ID order: barrier fences re-arrive (wake order
	// is commutative, so arrival order never shows), gather fences
	// re-attach to their coordinator flow's thread barrier.
	attach := func(target mem.PAddr, wake func(cycle uint64)) bool {
		return s.coord != nil && s.coord.AttachGatherWake(target, wake)
	}
	for _, c := range s.cores {
		if !c.RearmFence(attach) {
			return fmt.Errorf("system: core %d fence cannot be re-armed (inconsistent snapshot)", c.ID)
		}
	}
	if s.barrier.Pending() {
		// Every snapshot-time barrier count is strictly below the thread
		// count (a full barrier releases within the same cycle's flush), so
		// re-arrival can never complete a crossing.
		return fmt.Errorf("system: restored barrier crossed during re-arm (inconsistent snapshot)")
	}

	// Restart the clock at the snapshot cycle. All cached idle hints are
	// discarded; the first step re-polls every component exactly.
	s.engine.StartAt(cycle)
	return nil
}

// RunToCheckpoint simulates until the first quiescent point at or after
// cycle `at` and captures a snapshot there (appended to buf). When the
// machine finishes (or hits its cycle budget) before reaching such a
// point, it returns snap == nil and the run is complete — the caller can
// collect Results via RunCtx, which will return immediately.
//
// The snapshot cycle may exceed `at`: the engine fast-forwards over
// quiescent stretches, and the machine stops at the first cycle it
// actually examines that satisfies the predicate.
func (s *System) RunToCheckpoint(ctx context.Context, at uint64, buf []byte) (snap []byte, err error) {
	checkpointed := false
	pred := func() bool {
		if s.done() {
			return true
		}
		if s.engine.Cycle() >= at && s.Snapshotable() {
			checkpointed = true
			return true
		}
		return false
	}
	if _, err := s.engine.RunUntilCtx(ctx, pred, s.remainingBudget()); err != nil {
		return nil, fmt.Errorf("system: %s/%s: %w", s.cfg.Scheme, s.wl.Name(), err)
	}
	if !checkpointed {
		return nil, nil
	}
	return s.Snapshot(buf), nil
}

// FlowTableDemand reports the machine's flow-table pressure so far: the
// peak concurrent-flow count across every ARE and the total number of
// cycles an update stalled on a full table. Immediately after
// RunToCheckpoint or Restore this is the demand at the snapshot cycle —
// the fork-validity guard for prefix-shared sweeps: a prefix run is
// bit-identical under a different ARE.MaxFlows iff the table never
// influenced behavior, i.e. stalls == 0 and peak fits the fork's capacity.
func (s *System) FlowTableDemand() (peak int, stalls uint64) {
	for _, c := range s.cubes {
		if are := c.ARE(); are != nil {
			if are.Flows.Peak > peak {
				peak = are.Flows.Peak
			}
			stalls += are.Stats.FlowTableStalls
		}
	}
	return peak, stalls
}

// SnapshotKey is the content address of a checkpoint in the snapshot
// store: every configuration sharing it can restore the same blob
// (PrefixHash covers all prefix-live knobs; workload, scheme and scale pin
// the simulated program). The cycle is the REQUESTED checkpoint cycle, not
// the possibly-later quiescent cycle the snapshot lands on — lookups must
// compute the same key without running anything.
func SnapshotKey(cfg *Config, cycle uint64, workload, scale string) string {
	return fmt.Sprintf("snap|%016x|%d|%s|%s|%s", cfg.PrefixHash(cycle), cycle, workload, cfg.Scheme, scale)
}

// remainingBudget is the cycle budget left under cfg.MaxCycles for a
// machine at its current cycle — MaxCycles for a fresh machine, the
// difference for a restored or checkpointed one, so a resumed run times
// out at exactly the same absolute cycle as a straight-through run.
func (s *System) remainingBudget() uint64 {
	now := s.engine.Cycle()
	if now >= s.cfg.MaxCycles {
		return 0
	}
	return s.cfg.MaxCycles - now
}
