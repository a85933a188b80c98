package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/system"
	"repro/internal/workload"
)

// size scales the workloads. The command always runs fullSize; the tests
// run the same code paths on small inputs.
type size struct {
	fig51a, fig51b workload.Scale
	sweep          workload.Scale
	// sweeps fixes the number of sweep repeats; 0 means as many as fit in
	// the measurement time (at least three, for a median).
	sweeps int
	// requests fixes the number of serve-mixed requests; 0 means
	// requestsPerSecond per second of measurement time.
	requests int
	// calibRuns is the number of runs in each calibration probe.
	calibRuns int
}

var fullSize = size{fig51a: workload.ScaleSmall, fig51b: workload.ScaleMedium, sweep: workload.ScaleSmall, calibRuns: 9}

// env is what every workload receives: its inputs' seed, how long to
// measure, where spans go, and where it may write files.
type env struct {
	ctx     context.Context
	seed    uint64
	seconds float64
	size    size
	tr      *tracer
	tmpDir  string
}

// setupRepeats is how many times each workload sets up in one run; setup_s
// is the median.
const setupRepeats = 3

// config is the default machine for a scheme with the run's seed.
func config(sch system.Scheme, seed uint64) system.Config {
	cfg := system.DefaultConfig(sch)
	cfg.Seed = seed
	return cfg
}

// calibrate times the host-speed probe: the median of n lud/ARF-tid runs at
// ScaleTiny with the default seed, so every record, whatever its own seed,
// times the same work. It returns 0 if a run fails.
func calibrate(ctx context.Context, n int) float64 {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sys, err := system.New(system.DefaultConfig(system.SchemeARFtid), "lud", workload.ScaleTiny)
		if err != nil {
			return 0
		}
		if _, err := sys.RunCtx(ctx); err != nil {
			return 0
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

// addCounts adds one run's simulated statistics to the per-layer counts.
func addCounts(res *result, r *system.Results) {
	c := func(name string, v uint64) { res.count(name, float64(v)) }
	c("sim.cycles", r.Cycles)
	c("cpu.retired", r.CoreStats.Retired)
	c("cpu.rob_full_cycles", r.CoreStats.ROBFullCycles)
	c("cpu.mem_stalls", r.CoreStats.MemStalls)
	c("cpu.offload_stalls", r.CoreStats.OffloadStalls)
	c("cache.l1_accesses", r.Cache.L1Accesses)
	c("cache.l1_misses", r.Cache.L1Misses)
	c("cache.l2_accesses", r.Cache.L2Accesses)
	c("cache.l2_misses", r.Cache.L2Misses)
	c("dram.accesses", r.DRAMAcc)
	c("core.updates_committed", r.Engine.UpdatesCommitted)
	c("core.operand_buf_stalls", r.Engine.OperandBufStalls)
	c("core.flow_table_stalls", r.Engine.FlowTableStalls)
	c("core.inject_stalls", r.Engine.InjectStalls)
	c("core.coord_port_stalls", r.Coord.PortStalls)
	c("hmc.vault_accesses", r.VaultAcc)
	c("network.hop_bytes", r.NetHopByte)
}

// runSuite is the fig51a and fig51b workload: every (benchmark, scheme)
// pair of one Fig 5.1 suite, run serially with system.New then Run, then
// the figure derived with experiments.Fig51. Whole suite passes repeat
// while another fits in the measurement time; a pass outlasts the 20 s
// run_seconds BENCHMARK.json sets, so there it measures exactly one.
// latency_ms is the pass's wall time and sim_cycles_per_s counts only
// System.Run, so the two part where set-up or figure derivation moves.
func runSuite(e *env, res *result, names []string, scale workload.Scale) {
	schemes := system.Schemes()
	type job struct {
		wl  string
		sch system.Scheme
	}
	var jobs []job
	for _, wl := range names {
		for _, sch := range schemes {
			jobs = append(jobs, job{wl, sch})
		}
	}

	// Set-up is machine assembly alone: workload input generation plus
	// building every machine of the suite, each discarded once built.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		t0 := time.Now()
		for k, j := range jobs {
			sp := e.tr.root("system.new", 0, k)
			_, err := system.New(config(j.sch, e.seed), j.wl, scale)
			e.tr.end(sp)
			res.check(err == nil, "setup %s/%s: %v", j.wl, j.sch, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	first := map[string]string{}
	var passWalls []float64
	var runTime time.Duration
	var cycles uint64
	start := time.Now()
	for pass := 0; ; pass++ {
		runtime.GC()
		p0 := time.Now()
		suite := &experiments.Suite{Scale: scale, Workloads: names, Schemes: schemes,
			Results: map[experiments.Key]*system.Results{}}
		for k, j := range jobs {
			res.attempted++
			id := j.wl + "/" + j.sch.String()
			sp := e.tr.root("system.new", 0, k)
			sys, err := system.New(config(j.sch, e.seed), j.wl, scale)
			e.tr.end(sp)
			if err != nil {
				res.fail(fmt.Errorf("%s: %w", id, err))
				continue
			}
			t1 := time.Now()
			sp = e.tr.root("system.run", 0, k)
			r, err := sys.RunCtx(e.ctx)
			e.tr.end(sp)
			took := time.Since(t1)
			if err != nil {
				res.fail(fmt.Errorf("%s: %w", id, err))
				continue
			}
			runTime += took
			cycles += r.Cycles
			suite.Results[experiments.Key{Workload: j.wl, Scheme: j.sch}] = r
			d := digest(r)
			if pass == 0 {
				first[id] = d
				res.ops = append(res.ops, op{ID: id, Cycles: r.Cycles, Digest: d, HostS: took.Seconds()})
				addCounts(res, r)
				res.count("sim.skipped_ticks", float64(sys.Engine().SkippedTicks))
				res.count("sim.jumped_cycles", float64(sys.Engine().JumpedCycles))
			} else {
				res.check(d == first[id], "%s: pass %d digest %s differs from pass 0's %s", id, pass, d, first[id])
			}
		}
		if len(suite.Results) == len(jobs) {
			sp := e.tr.root("experiments.fig51", 0, -1)
			t, err := experiments.Fig51(suite)
			e.tr.end(sp)
			res.check(err == nil, "experiments.Fig51: %v", err)
			if err == nil {
				for si, sch := range schemes {
					if sch == system.SchemeARFtid {
						res.details["gmean_speedup_arf_tid"] = t.GMean[si]
					}
				}
			}
		}
		passWalls = append(passWalls, time.Since(p0).Seconds())
		if time.Since(start).Seconds()+passWalls[pass] > e.seconds {
			break
		}
	}

	res.e2e["setup_s"] = metric{median(setups), "s"}
	res.e2e["latency_ms"] = metric{1000 * median(passWalls), "ms"}
	res.e2e["sim_cycles_per_s"] = metric{ratio(float64(cycles), runTime.Seconds()), "cycles/s"}
	res.details["passes"] = float64(len(passWalls))
	res.details["run_s"] = runTime.Seconds()
	res.layer["sim.ns_per_cycle"] = metric{ratio(float64(runTime.Nanoseconds()), float64(cycles)), "ns"}
}
