package system

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"

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
// machine is plain data, and each fenced core's thread id is listed where
// it waits: at the barrier or on its coordinator flow. Tag counters are
// not carried: every table holding a live tag is empty at quiescence, and
// a tag is only an identity, so a restored machine restarts them at zero.
//
// Restore never rebases the clock: the engine restarts at the snapshot
// cycle (StartAt), so absolute-cycle state — DRAM freeAt/activatedAt,
// link busy horizons, timed-call deadlines — serializes verbatim.

// snapshotVersion is the wire-format version of a system snapshot blob.
// Bump on any layout change; restore rejects other versions.
const snapshotVersion = 4

// Snapshotable reports whether the machine is at a quiescent point where
// Snapshot can capture it exactly.
func (s *System) Snapshotable() bool {
	for i := range s.parts {
		if busy := s.parts[i].snapBusy; busy != nil && busy() {
			return false
		}
	}
	return true
}

// Snapshot appends the machine's complete quiescent-point state to buf and
// returns the extended slice. The caller must have checked Snapshotable.
// Each core's stall counters are first settled to the snapshot cycle, so
// the blob is the same whichever kernel ran the machine.
// Into a buffer with room for the blob, it allocates only for the
// configuration's PrefixHash, the encoding stream and the sorted lists of
// the map-keyed sections (memory pages, and live ARE or coordinator flows);
// TestSnapshotAllocations bounds them.
func (s *System) Snapshot(buf []byte) []byte {
	st := sim.NewEncoder(buf)
	cycle := s.engine.Cycle()
	for _, c := range s.cores {
		c.Settle(cycle)
	}
	if err := s.state(st, &cycle); err != nil {
		panic(fmt.Sprintf("system: machine state fails its own decode checks: %v", err))
	}
	// Integrity trailer over the encoded region: the structural validation
	// in the decoders catches torn or truncated blobs, but a bit flip in a
	// raw payload (a stored float, a page byte) would otherwise decode as a
	// different-but-valid snapshot.
	sum := snapshotSum(st.Bytes()[len(buf):])
	st.U64(&sum)
	return st.Bytes()
}

// snapshotSum digests an encoded snapshot region for the integrity
// trailer.
func snapshotSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// state streams the whole machine: a header naming the configuration and
// workload the blob belongs to, the state the header carries (random
// generator, memory image, IPC trace), then each component's section in
// table order. Decoding fills *cycle from the blob
// and fails on a header this machine cannot restore.
func (s *System) state(st *sim.Stream, cycle *uint64) error {
	st.Tag("arsys")
	v := snapshotVersion
	if st.Int(&v); st.Err() == nil && v != snapshotVersion {
		return fmt.Errorf("system: snapshot version %d, this build reads %d", v, snapshotVersion)
	}
	st.U64(cycle)
	want := s.cfg.PrefixHash(*cycle)
	prefix, name := want, s.wl.Name()
	if st.U64(&prefix); st.Err() == nil && prefix != want {
		return fmt.Errorf("system: snapshot prefix hash %016x does not match this configuration at cycle %d", prefix, *cycle)
	}
	st.Match(int(s.cfg.Scheme), "scheme")
	if st.Str(&name); st.Err() == nil && name != s.wl.Name() {
		st.Fail("workload mismatch: snapshot %q, machine %q", name, s.wl.Name())
	}
	if !st.Match(s.cfg.Threads, "threads") || !st.Match(len(s.hubs), "tiles") {
		return st.Err()
	}
	r := s.env.Rand.State()
	if st.U64(&r); st.Decoding() {
		s.env.Rand.SetState(r)
	}
	s.env.Store.State(st)
	st.U64(&s.lastRetired)
	stats.PointsState(st, &s.ipcTrace, "ipc trace points")
	for _, p := range s.parts {
		if p.state != nil {
			p.state.State(st)
		}
	}
	return st.Err()
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
	if snapshotSum(body) != binary.LittleEndian.Uint64(data[len(body):]) {
		return fmt.Errorf("system: snapshot integrity checksum mismatch")
	}
	st := sim.NewDecoder(body)
	var cycle uint64
	if err := s.state(st, &cycle); err != nil {
		return err
	}
	if n := st.Remaining(); n != 0 {
		return fmt.Errorf("system: %d trailing bytes after snapshot", n)
	}

	// Every id the barrier or a coordinator flow lists must name a fenced
	// core, and every fenced core must be listed exactly once, or a release
	// would index past the cores, release an unfenced core, or never come.
	listed, ok := make([]bool, len(s.cores)), true
	list := func(tid int) {
		if ok = ok && tid >= 0 && tid < len(s.cores) && !listed[tid] && s.cores[tid].Fenced(); ok {
			listed[tid] = true
		}
	}
	for _, tid := range s.barrier.Waiting() {
		list(tid)
	}
	if s.coord != nil {
		s.coord.EachWaiter(list)
	}
	for tid, c := range s.cores {
		ok = ok && c.Fenced() == listed[tid]
	}
	if !ok {
		return fmt.Errorf("system: fence waiters do not match the fenced cores (inconsistent snapshot)")
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
// the simulated program). The key names the wire version, so a store
// written by a build with another format holds no blob under this build's
// keys and its stale blobs are never looked up. The cycle is the REQUESTED
// checkpoint cycle, not the possibly-later quiescent cycle the snapshot
// lands on — lookups must compute the same key without running anything.
func SnapshotKey(cfg *Config, cycle uint64, workload, scale string) string {
	return fmt.Sprintf("snap|v%d|%016x|%d|%s|%s|%s", snapshotVersion, cfg.PrefixHash(cycle), cycle, workload, cfg.Scheme, scale)
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
