package sweep

import (
	"context"
	"sort"

	"repro/internal/store"
	"repro/internal/system"
)

// Prefix-shared sweep execution.
//
// Many grid points differ only in knobs that cannot influence the first
// PrefixCycle cycles of simulation: the points of a flow-table capacity
// ablation all simulate the identical machine until the table first fills.
// Such points form a shared-prefix family — same workload, scheme, scale
// and Config.PrefixHash at PrefixCycle. RunPrefixShared simulates each
// family's prefix ONCE (the leader runs to a quiescent checkpoint, then on
// to completion), and forks the remaining points from the checkpoint, so a
// family of k points costs roughly one full run plus (k-1) suffix runs
// instead of k full runs.
//
// Correctness is never traded for the saving: a fork is taken only when
// the leader's demand PROVES the fork's configuration would have simulated
// the prefix identically (see forkValid), and every fallback path — no
// quiescent point, a guard miss, a stale or unreadable stored snapshot —
// is a full cold run, bit-identical to plain Run.

// PrefixStats reports how a prefix-shared sweep executed its points.
type PrefixStats struct {
	// Families is the number of shared-prefix families the grid factored
	// into (singleton families included).
	Families int `json:"families"`
	// LeaderRuns counts leaders simulated from cycle 0 (checkpoint or not).
	LeaderRuns int `json:"leader_runs"`
	// StoreHits counts leaders warm-started from the snapshot store.
	StoreHits int `json:"store_hits"`
	// ForkResumes counts non-leader points resumed from a checkpoint.
	ForkResumes int `json:"fork_resumes"`
	// ColdFallbacks counts non-leader points that ran cold: the family has
	// no checkpoint, the fork-validity guard failed, or a restore errored.
	ColdFallbacks int `json:"cold_fallbacks"`
}

// family is one shared-prefix group: its snapshot-store key, its member
// job indices (leader first), and — once the leader phase ran — the
// checkpoint blob plus the leader's flow-table demand at the checkpoint.
type family struct {
	key     string
	members []int // job indices, leader at members[0]

	snap  []byte
	peak  int
	stall uint64
}

// forkValid reports whether the family's checkpoint restores bit-exactly
// under cfg. The only behavior-divergent knob PrefixHash excludes is
// ARE.MaxFlows, and capacity influences simulation solely by stalling a
// full table: with zero stalls and a peak within the fork's capacity the
// prefix provably never observed the difference.
func (f *family) forkValid(cfg *system.Config) bool {
	return f.snap != nil && f.stall == 0 && f.peak <= cfg.ARE.MaxFlows
}

// RunPrefixShared executes the grid like RunOn but factors its points into
// shared-prefix families at g.PrefixCycle, drawing workers from budget b
// (nil means a private budget sized by g.Workers). When snaps is non-nil,
// family checkpoints are looked up in and persisted to it, so a later
// process (or a service warm-start) skips the prefix entirely. Results are
// bit-identical to Run — point order, values and hashes — only wall-clock
// differs. A zero PrefixCycle degenerates to plain RunOn.
func RunPrefixShared(ctx context.Context, g Grid, b *Budget, snaps *store.Store) (*Result, *PrefixStats, error) {
	if b == nil {
		b = NewBudget(g.Workers)
	}
	if g.PrefixCycle == 0 {
		res, err := RunOn(ctx, g, b)
		return res, &PrefixStats{}, err
	}
	jobs, cfgs, err := g.prepare()
	if err != nil {
		return nil, nil, err
	}

	// Factor into families. The leader is the member with the SMALLEST
	// flow-table capacity: if the prefix never stalls the tightest table,
	// its peak fits every sibling's capacity and the whole family forks.
	byKey := map[string]*family{}
	var fams []*family
	for i, j := range jobs {
		key := system.SnapshotKey(&cfgs[i], g.PrefixCycle, j.wl, g.Scale.String())
		f, ok := byKey[key]
		if !ok {
			f = &family{key: key}
			byKey[key] = f
			fams = append(fams, f)
		}
		f.members = append(f.members, i)
	}
	for _, f := range fams {
		sort.Slice(f.members, func(a, b int) bool {
			ma, mb := f.members[a], f.members[b]
			if cfgs[ma].ARE.MaxFlows != cfgs[mb].ARE.MaxFlows {
				return cfgs[ma].ARE.MaxFlows < cfgs[mb].ARE.MaxFlows
			}
			return ma < mb
		})
	}

	points := make([]Point, len(jobs))
	st := &PrefixStats{Families: len(fams)}

	// Phase 1 — leaders: each family's leader either warm-starts from the
	// snapshot store or simulates from cycle 0 through a checkpoint, then
	// runs to completion. Exactly one job touches each family struct, so
	// the phase needs no locking; per-family outcome flags are summed after
	// the pool drains (deterministic, no atomics).
	warm := make([]bool, len(fams))
	err = RunJobsOn(ctx, len(fams), b, func(ctx context.Context, fi int) error {
		f := fams[fi]
		i := f.members[0]
		j := jobs[i]
		cfg := cfgs[i]
		sys, err := system.New(cfg, j.wl, g.Scale)
		if err != nil {
			return g.pointErr(j, err)
		}
		if snaps != nil {
			if blob, ok := snaps.Get(f.key); ok {
				if rerr := sys.Restore(blob); rerr == nil {
					f.snap = blob
					warm[fi] = true
				} else {
					// A failed restore leaves the machine partially decoded:
					// rebuild and fall through to the cold leader path. The
					// stored blob stays (another configuration may still
					// restore it); this family just re-derives its own.
					sys, err = system.New(cfg, j.wl, g.Scale)
					if err != nil {
						return g.pointErr(j, err)
					}
				}
			}
		}
		if f.snap == nil {
			blob, err := sys.RunToCheckpoint(ctx, g.PrefixCycle, nil)
			if err != nil {
				return g.pointErr(j, err)
			}
			f.snap = blob // nil when the run finished before any quiescent point
			if blob != nil && snaps != nil {
				// Persistence is an optimization: a store write failure must
				// not fail the sweep (the checkpoint is in memory and every
				// fork this process takes still works).
				_ = snaps.Put(f.key, blob)
			}
		}
		if f.snap != nil {
			// Demand at the checkpoint: read directly after RunToCheckpoint,
			// or from the restored counters after a warm start — both stand
			// at the snapshot cycle.
			f.peak, f.stall = sys.FlowTableDemand()
		}
		r, err := sys.RunCtx(ctx)
		if err != nil {
			return g.pointErr(j, err)
		}
		points[i] = newPoint(i, j, &cfg, r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for fi := range fams {
		if warm[fi] {
			st.StoreHits++
		} else {
			st.LeaderRuns++
		}
	}

	// Phase 2 — forks: every non-leader point, in parallel across all
	// families. Guard misses and restore failures fall back to cold runs.
	var forks []int
	for _, f := range fams {
		forks = append(forks, f.members[1:]...)
	}
	famOf := map[int]*family{}
	for _, f := range fams {
		for _, i := range f.members[1:] {
			famOf[i] = f
		}
	}
	resumed := make([]bool, len(forks))
	err = RunJobsOn(ctx, len(forks), b, func(ctx context.Context, k int) error {
		i := forks[k]
		j := jobs[i]
		cfg := cfgs[i]
		f := famOf[i]
		sys, err := system.New(cfg, j.wl, g.Scale)
		if err != nil {
			return g.pointErr(j, err)
		}
		if f.forkValid(&cfg) {
			if rerr := sys.Restore(f.snap); rerr == nil {
				resumed[k] = true
			} else {
				sys, err = system.New(cfg, j.wl, g.Scale)
				if err != nil {
					return g.pointErr(j, err)
				}
			}
		}
		r, err := sys.RunCtx(ctx)
		if err != nil {
			return g.pointErr(j, err)
		}
		points[i] = newPoint(i, j, &cfg, r)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, ok := range resumed {
		if ok {
			st.ForkResumes++
		} else {
			st.ColdFallbacks++
		}
	}

	return g.result(points), st, nil
}
