package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/workload"
)

// flowtableGrid is the built-in flowtable study with the run's seed as a
// single-value axis.
func flowtableGrid(e *env) sweep.Grid {
	g := sweep.FlowTableStudy(e.size.sweep)
	seed := e.seed
	g.Axes = append(g.Axes, sweep.Axis{Name: "seed", Values: []sweep.Value{{
		Label: strconv.FormatUint(seed, 10),
		Apply: func(cfg *system.Config) { cfg.Seed = seed },
	}}})
	return g
}

// runSweep is the sweep-flowtable workload: the flowtable study through
// sweep.RunPrefixShared on a 2-slot budget with no snapshot store, so every
// repeat is cold and forks from in-memory checkpoints.
func runSweep(e *env, res *result) {
	g := flowtableGrid(e)

	// Set-up is assembling every grid point's machine once, serially: the
	// sweep engine expands the grid and hands each point's configuration to
	// a runner that only builds the machine.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		_, err := sweep.RunVia(e.ctx, g, 1, func(_ context.Context, cfg *system.Config, wl string, scale workload.Scale) (*system.Results, error) {
			sp := e.tr.root("system.new", 0, -1)
			_, err := system.New(*cfg, wl, scale)
			e.tr.end(sp)
			return &system.Results{}, err
		})
		setups = append(setups, time.Since(t0).Seconds())
		res.check(err == nil, "setup: %v", err)
	}

	budget := sweep.NewBudget(2)
	var walls []float64
	var firstDigest string
	var first *sweep.Result
	var pointCycles uint64
	start := time.Now()
	for rep := 0; ; rep++ {
		res.attempted++
		runtime.GC()
		sp := e.tr.root("sweep.run_prefix_shared", 0, rep)
		t0 := time.Now()
		out, st, err := sweep.RunPrefixShared(e.ctx, g, budget, nil)
		took := time.Since(t0).Seconds()
		e.tr.end(sp)
		if err != nil {
			res.fail(fmt.Errorf("sweep %d: %w", rep, err))
		} else {
			walls = append(walls, took)
			d := digest(out)
			if first == nil {
				first, firstDigest = out, d
				for _, p := range out.Points {
					pointCycles += p.Cycles
					// The op is named and digested without the seed and the
					// config hash, so records of two seeds, or of two config
					// schemas, compare point by point.
					p.Coords, p.ConfigHash = p.Coords[:len(p.Coords)-1], ""
					id := fmt.Sprintf("%s/%s/%v", p.Workload, p.Scheme, p.Coords)
					res.ops = append(res.ops, op{ID: id, Cycles: p.Cycles, Digest: digest(p)})
					res.count("sim.cycles", float64(p.Cycles))
					res.count("cpu.retired", float64(p.Instructions))
					res.count("core.flow_table_stalls", float64(p.FlowTableStalls))
					res.count("core.operand_buf_stalls", float64(p.OperandBufStalls))
				}
				res.layer["sweep.families"] = metric{float64(st.Families), "count"}
				res.layer["sweep.leader_runs"] = metric{float64(st.LeaderRuns), "count"}
				res.layer["sweep.fork_resumes"] = metric{float64(st.ForkResumes), "count"}
				res.layer["sweep.cold_fallbacks"] = metric{float64(st.ColdFallbacks), "count"}
				res.layer["sweep.fork_ratio"] = metric{ratio(float64(st.ForkResumes), float64(st.ForkResumes+st.ColdFallbacks)), "ratio"}
			} else {
				res.check(d == firstDigest, "sweep %d: digest %s differs from the first sweep's %s", rep, d, firstDigest)
			}
		}
		done := rep + 1
		if e.size.sweeps > 0 {
			if done >= e.size.sweeps {
				break
			}
		} else if done >= 3 && time.Since(start).Seconds()+took > e.seconds {
			break
		}
	}

	if e.tr.on && first != nil {
		snapshotProbe(e, res, g, first)
	}

	// The grid's cycle count is fixed, so sim_cycles_per_s here is
	// latency_ms rescaled: the effective rate, which counts forked prefixes.
	p50 := median(walls)
	res.e2e["setup_s"] = metric{median(setups), "s"}
	res.e2e["latency_ms"] = metric{1000 * p50, "ms"}
	res.e2e["sim_cycles_per_s"] = metric{ratio(float64(pointCycles), p50), "cycles/s"}
	res.details["sweeps"] = float64(len(walls))
	res.layer["sim.ns_per_cycle"] = metric{ratio(p50*1e9, float64(pointCycles)), "ns"}
}

// snapshotProbe times the checkpoint path one family of the study takes,
// call by call: the ARF-tid leader (smallest flow table) runs to the
// study's PrefixCycle and is snapshotted, then a sibling with a larger
// table restores the snapshot and runs to completion. The sibling must
// reproduce the sweep's own result for that point.
func snapshotProbe(e *env, res *result, g sweep.Grid, out *sweep.Result) {
	wl := g.Workloads[0]
	leader := system.DefaultConfig(system.SchemeARFtid)
	leader.Seed = e.seed
	leader.ARE.MaxFlows = 64
	fork := leader
	fork.ARE.MaxFlows = 128

	sp := e.tr.root("system.new", 0, -1)
	sys, err := system.New(leader, wl, g.Scale)
	e.tr.end(sp)
	if err != nil {
		res.check(false, "probe: %v", err)
		return
	}
	sp = e.tr.root("system.run_to_checkpoint", 0, -1)
	blob, err := sys.RunToCheckpoint(e.ctx, g.PrefixCycle, nil)
	e.tr.end(sp)
	if err != nil || blob == nil {
		res.check(false, "probe: no checkpoint at cycle %d: %v", g.PrefixCycle, err)
		return
	}
	if !sys.Snapshotable() {
		res.check(false, "probe: machine not quiescent after RunToCheckpoint")
		return
	}
	sp = e.tr.root("system.snapshot", 0, -1)
	again := sys.Snapshot(nil)
	e.tr.end(sp)
	res.check(bytes.Equal(blob, again), "probe: two snapshots of one checkpoint differ")
	res.layer["system.snapshot_bytes"] = metric{float64(len(blob)), "count"}
	sp = e.tr.root("system.run", 0, -1)
	_, err = sys.RunCtx(e.ctx)
	e.tr.end(sp)
	res.check(err == nil, "probe: leader: %v", err)

	sp = e.tr.root("system.new", 0, -1)
	sib, err := system.New(fork, wl, g.Scale)
	e.tr.end(sp)
	if err != nil {
		res.check(false, "probe: %v", err)
		return
	}
	sp = e.tr.root("system.restore", 0, -1)
	err = sib.Restore(blob)
	e.tr.end(sp)
	if err != nil {
		res.check(false, "probe: restore: %v", err)
		return
	}
	sp = e.tr.root("system.resume_run", 0, -1)
	r, err := sib.RunCtx(e.ctx)
	e.tr.end(sp)
	if err != nil {
		res.check(false, "probe: resumed run: %v", err)
		return
	}
	hash := fork.Hash()
	for _, p := range out.Points {
		if p.ConfigHash == hash {
			res.check(p.Cycles == r.Cycles, "probe: resumed run took %d cycles, the sweep's point %d", r.Cycles, p.Cycles)
			return
		}
	}
	res.check(false, "probe: the sweep has no point with config %s", hash)
}
