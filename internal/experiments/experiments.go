// Package experiments regenerates every table and figure of the thesis's
// evaluation (Chapter 5): it runs the workload × scheme cross product on
// the simulated machine and derives the exact series each figure plots.
// EXPERIMENTS.md records paper-vs-measured for each one.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/workload"
)

// Key identifies one run.
type Key struct {
	Workload string
	Scheme   system.Scheme
}

// Suite holds the results of a workload × scheme cross product; every
// figure derives from these runs.
type Suite struct {
	Scale     workload.Scale
	Workloads []string
	Schemes   []system.Scheme
	Results   map[Key]*system.Results
}

// Configure tweaks the per-run configuration before a suite run (used by
// ablation benchmarks); nil means defaults. It is the same mutator type
// the sweep axes use, so axis values and suite configurators interchange.
type Configure = sweep.Mutator

// RunSuite executes every (workload, scheme) pair, in parallel across
// available CPUs. Every run's final memory state is verified against the
// workload reference; any mismatch fails the suite.
func RunSuite(scale workload.Scale, workloads []string, schemes []system.Scheme, conf Configure) (*Suite, error) {
	return RunSuiteCtx(context.Background(), scale, workloads, schemes, conf)
}

// RunSuiteCtx is RunSuite on the grid executor: at most GOMAXPROCS runs
// simulate at once, the first failing run (or a cancelled ctx) cancels the
// rest, and queued runs never start — a failed suite aborts promptly
// instead of simulating the remaining cross product to completion.
func RunSuiteCtx(ctx context.Context, scale workload.Scale, workloads []string, schemes []system.Scheme, conf Configure) (*Suite, error) {
	return runSuite(ctx, scale, SuiteSpec{workloads, schemes}, conf, sweep.Direct(nil, nil))
}

// Get returns the run for (workload, scheme); it panics if the suite did
// not include it.
func (s *Suite) Get(wl string, sch system.Scheme) *system.Results {
	r, ok := s.Results[Key{wl, sch}]
	if !ok {
		panic(fmt.Sprintf("experiments: suite has no run for %s/%s", sch, wl))
	}
	return r
}

// gmean returns the geometric mean of positive values. A non-positive or
// non-finite value is an error — silently collapsing the whole mean to 0
// (the old behavior) corrupted every derived gmean row downstream.
func gmean(vs []float64) (float64, error) {
	if len(vs) == 0 {
		return 0, fmt.Errorf("gmean of empty set")
	}
	acc := 0.0
	for i, v := range vs {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("gmean: value %d is %v (want positive finite)", i, v)
		}
		acc += math.Log(v)
	}
	return math.Exp(acc / float64(len(vs))), nil
}

// normalize divides v by base, rejecting the zero/non-finite denominators
// that previously leaked NaN/Inf into the normalized figure tables.
func normalize(what, wl string, v, base float64) (float64, error) {
	if base == 0 || math.IsNaN(base) || math.IsInf(base, 0) {
		return 0, fmt.Errorf("experiments: %s: zero or non-finite %s baseline for %s", what, what, wl)
	}
	return v / base, nil
}

// SpeedupTable is Fig 5.1: runtime speedup over the DRAM baseline.
type SpeedupTable struct {
	Workloads []string
	Schemes   []system.Scheme
	// Speedup[w][s] = cycles(DRAM) / cycles(scheme s) for workload w.
	Speedup [][]float64
	// GMean[s] is the geometric mean across workloads.
	GMean []float64
}

// Fig51 derives the Fig 5.1 speedup bars from a suite.
func Fig51(s *Suite) (*SpeedupTable, error) {
	t := &SpeedupTable{Workloads: s.Workloads, Schemes: s.Schemes}
	t.Speedup = make([][]float64, len(s.Workloads))
	for wi, wl := range s.Workloads {
		base := float64(s.Get(wl, system.SchemeDRAM).Cycles)
		if base == 0 {
			return nil, fmt.Errorf("experiments: Fig 5.1: zero DRAM cycle baseline for %s", wl)
		}
		row := make([]float64, len(s.Schemes))
		for si, sch := range s.Schemes {
			c := float64(s.Get(wl, sch).Cycles)
			if c == 0 {
				return nil, fmt.Errorf("experiments: Fig 5.1: zero cycle count for %s/%s", sch, wl)
			}
			row[si] = base / c
		}
		t.Speedup[wi] = row
	}
	t.GMean = make([]float64, len(s.Schemes))
	for si, sch := range s.Schemes {
		col := make([]float64, len(s.Workloads))
		for wi := range s.Workloads {
			col[wi] = t.Speedup[wi][si]
		}
		g, err := gmean(col)
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig 5.1 %s speedup: %w", sch, err)
		}
		t.GMean[si] = g
	}
	return t, nil
}

// Print renders the table in the paper's layout.
func (t *SpeedupTable) Print(w io.Writer) {
	fmt.Fprintf(w, "%-12s", "workload")
	for _, sch := range t.Schemes {
		fmt.Fprintf(w, "%12s", sch)
	}
	fmt.Fprintln(w)
	for wi, wl := range t.Workloads {
		fmt.Fprintf(w, "%-12s", wl)
		for si := range t.Schemes {
			fmt.Fprintf(w, "%12.2f", t.Speedup[wi][si])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s", "gmean")
	for _, g := range t.GMean {
		fmt.Fprintf(w, "%12.2f", g)
	}
	fmt.Fprintln(w)
}

// LatencyTable is Fig 5.2: update roundtrip latency split into request,
// stall and response components (cycles).
type LatencyTable struct {
	Workloads []string
	Schemes   []system.Scheme
	Req       [][]float64
	Stall     [][]float64
	Resp      [][]float64
}

// Fig52 derives the Fig 5.2 latency breakdown for the Active-Routing
// schemes in the suite.
func Fig52(s *Suite) *LatencyTable {
	var schemes []system.Scheme
	for _, sch := range s.Schemes {
		if sch.Active() {
			schemes = append(schemes, sch)
		}
	}
	t := &LatencyTable{Workloads: s.Workloads, Schemes: schemes}
	for _, wl := range s.Workloads {
		var req, stall, resp []float64
		for _, sch := range schemes {
			r, st, rp := s.Get(wl, sch).Breakdown.Means()
			req = append(req, r)
			stall = append(stall, st)
			resp = append(resp, rp)
		}
		t.Req = append(t.Req, req)
		t.Stall = append(t.Stall, stall)
		t.Resp = append(t.Resp, resp)
	}
	return t
}

// Print renders the stacked-bar data.
func (t *LatencyTable) Print(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-10s %10s %10s %10s %10s\n", "workload", "scheme", "req", "stall", "resp", "total")
	for wi, wl := range t.Workloads {
		for si, sch := range t.Schemes {
			fmt.Fprintf(w, "%-12s %-10s %10.1f %10.1f %10.1f %10.1f\n",
				wl, sch, t.Req[wi][si], t.Stall[wi][si], t.Resp[wi][si],
				t.Req[wi][si]+t.Stall[wi][si]+t.Resp[wi][si])
		}
	}
}

// HeatmapSet is Fig 5.3: per-cube operand-buffer stalls, update
// distribution and operand distribution for lud under ARF-tid and
// ARF-addr, plus the imbalance figure of merit.
type HeatmapSet struct {
	Scheme  system.Scheme
	Stalls  []uint64
	Updates []uint64
	Operand []uint64
}

// Fig53 derives the lud heatmaps from a suite containing lud runs.
func Fig53(s *Suite) []HeatmapSet {
	var out []HeatmapSet
	for _, sch := range []system.Scheme{system.SchemeARFtid, system.SchemeARFaddr} {
		r := s.Get("lud", sch)
		out = append(out, HeatmapSet{
			Scheme:  sch,
			Stalls:  append([]uint64(nil), r.StallHeat.Cells...),
			Updates: append([]uint64(nil), r.UpdatesHeat.Cells...),
			Operand: append([]uint64(nil), r.OperandHeat.Cells...),
		})
	}
	return out
}

// PrintHeatmaps renders the Fig 5.3 grids. Cube c prints at row c/4,
// column c%4; the four controller ports attach at the left-edge cubes
// 0, 4, 8, 12 (DESIGN.md notes this cosmetic deviation from "4 corners").
func PrintHeatmaps(w io.Writer, sets []HeatmapSet) {
	grid := func(cells []uint64) string {
		var b strings.Builder
		for i, c := range cells {
			fmt.Fprintf(&b, "%9d", c)
			if (i+1)%4 == 0 {
				b.WriteByte('\n')
			}
		}
		return b.String()
	}
	imb := func(cells []uint64) float64 {
		var max, sum uint64
		for _, c := range cells {
			sum += c
			if c > max {
				max = c
			}
		}
		if sum == 0 {
			return 0
		}
		return float64(max) * float64(len(cells)) / float64(sum)
	}
	for _, set := range sets {
		fmt.Fprintf(w, "--- %s (lud)\n", set.Scheme)
		fmt.Fprintf(w, "operand buffer stalls (imbalance %.2f):\n%s", imb(set.Stalls), grid(set.Stalls))
		fmt.Fprintf(w, "update distribution (imbalance %.2f):\n%s", imb(set.Updates), grid(set.Updates))
		fmt.Fprintf(w, "operand distribution (imbalance %.2f):\n%s", imb(set.Operand), grid(set.Operand))
	}
}

// MovementTable is Fig 5.4: off-chip data movement normalized to the HMC
// baseline, split into normal/active request/response bytes.
type MovementTable struct {
	Workloads []string
	Schemes   []system.Scheme
	// Fractions[w][s] are the four components, each normalized by the HMC
	// run's total movement for workload w.
	NormReq    [][]float64
	ActiveReq  [][]float64
	NormResp   [][]float64
	ActiveResp [][]float64
}

// Fig54 derives the Fig 5.4 movement breakdown (HMC-based schemes only).
// A workload whose HMC baseline moved zero bytes cannot be normalized and
// fails the derivation instead of emitting NaN/Inf bars.
func Fig54(s *Suite) (*MovementTable, error) {
	var schemes []system.Scheme
	for _, sch := range s.Schemes {
		if sch != system.SchemeDRAM {
			schemes = append(schemes, sch)
		}
	}
	t := &MovementTable{Workloads: s.Workloads, Schemes: schemes}
	for _, wl := range s.Workloads {
		base := float64(s.Get(wl, system.SchemeHMC).Movement.Total())
		var nr, ar, np, ap []float64
		for _, sch := range schemes {
			m := s.Get(wl, sch).Movement
			v, err := normalize("movement", wl, float64(m.NormReq), base)
			if err != nil {
				return nil, err
			}
			nr = append(nr, v)
			ar = append(ar, float64(m.ActiveReq)/base)
			np = append(np, float64(m.NormResp)/base)
			ap = append(ap, float64(m.ActiveResp)/base)
		}
		t.NormReq = append(t.NormReq, nr)
		t.ActiveReq = append(t.ActiveReq, ar)
		t.NormResp = append(t.NormResp, np)
		t.ActiveResp = append(t.ActiveResp, ap)
	}
	return t, nil
}

// Total returns the normalized total movement for (workload index, scheme
// index).
func (t *MovementTable) Total(wi, si int) float64 {
	return t.NormReq[wi][si] + t.ActiveReq[wi][si] + t.NormResp[wi][si] + t.ActiveResp[wi][si]
}

// Print renders the stacked-bar data.
func (t *MovementTable) Print(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-10s %9s %10s %10s %11s %8s\n",
		"workload", "scheme", "norm_req", "active_req", "norm_resp", "active_resp", "total")
	for wi, wl := range t.Workloads {
		for si, sch := range t.Schemes {
			fmt.Fprintf(w, "%-12s %-10s %9.3f %10.3f %10.3f %11.3f %8.3f\n",
				wl, sch, t.NormReq[wi][si], t.ActiveReq[wi][si],
				t.NormResp[wi][si], t.ActiveResp[wi][si], t.Total(wi, si))
		}
	}
}

// EnergyTable covers Figs 5.5 (power), 5.6 (energy) and 5.7 (EDP), each
// normalized to the DRAM baseline.
type EnergyTable struct {
	Workloads []string
	Schemes   []system.Scheme
	// Per workload × scheme, components normalized to the DRAM total.
	Cache   [][]float64
	Memory  [][]float64
	Network [][]float64
	EDP     [][]float64
	EDPGM   []float64
}

// Fig55to57 derives the power/energy/EDP figures. power selects Fig 5.5's
// time-normalized view; otherwise components are energies (Fig 5.6). Zero
// DRAM baselines (energy, power or EDP) fail the derivation instead of
// emitting NaN/Inf rows.
func Fig55to57(s *Suite, asPower bool) (*EnergyTable, error) {
	t := &EnergyTable{Workloads: s.Workloads, Schemes: s.Schemes}
	for _, wl := range s.Workloads {
		dram := s.Get(wl, system.SchemeDRAM)
		baseE := dram.Energy.Total()
		baseP := dram.PowerW.Total()
		baseEDP := dram.EDP
		var ca, me, ne, ed []float64
		for _, sch := range s.Schemes {
			r := s.Get(wl, sch)
			if asPower {
				v, err := normalize("power", wl, r.PowerW.CacheJ, baseP)
				if err != nil {
					return nil, err
				}
				ca = append(ca, v)
				me = append(me, r.PowerW.MemoryJ/baseP)
				ne = append(ne, r.PowerW.NetworkJ/baseP)
			} else {
				v, err := normalize("energy", wl, r.Energy.CacheJ, baseE)
				if err != nil {
					return nil, err
				}
				ca = append(ca, v)
				me = append(me, r.Energy.MemoryJ/baseE)
				ne = append(ne, r.Energy.NetworkJ/baseE)
			}
			v, err := normalize("EDP", wl, r.EDP, baseEDP)
			if err != nil {
				return nil, err
			}
			ed = append(ed, v)
		}
		t.Cache = append(t.Cache, ca)
		t.Memory = append(t.Memory, me)
		t.Network = append(t.Network, ne)
		t.EDP = append(t.EDP, ed)
	}
	t.EDPGM = make([]float64, len(s.Schemes))
	for si, sch := range s.Schemes {
		col := make([]float64, len(s.Workloads))
		for wi := range s.Workloads {
			col[wi] = t.EDP[wi][si]
		}
		g, err := gmean(col)
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig 5.5-5.7 %s EDP: %w", sch, err)
		}
		t.EDPGM[si] = g
	}
	return t, nil
}

// Print renders the normalized component bars plus the EDP row.
func (t *EnergyTable) Print(w io.Writer, label string) {
	fmt.Fprintf(w, "%-12s %-10s %9s %9s %9s %9s %9s\n",
		"workload", "scheme", "cache", "memory", "network", "total", "EDP")
	for wi, wl := range t.Workloads {
		for si, sch := range t.Schemes {
			total := t.Cache[wi][si] + t.Memory[wi][si] + t.Network[wi][si]
			fmt.Fprintf(w, "%-12s %-10s %9.3f %9.3f %9.3f %9.3f %9.3f\n",
				wl, sch, t.Cache[wi][si], t.Memory[wi][si], t.Network[wi][si], total, t.EDP[wi][si])
		}
	}
	fmt.Fprintf(w, "EDP gmean (%s):", label)
	for si, sch := range t.Schemes {
		fmt.Fprintf(w, "  %s=%.3f", sch, t.EDPGM[si])
	}
	fmt.Fprintln(w)
}

// Fig58Result is the §5.4 dynamic offloading case study: aggregate IPC
// traces for HMC, ARF-tid and ARF-tid-adaptive on the phase-varying LU
// workload, plus final speedups over HMC.
type Fig58Result struct {
	Schemes []system.Scheme
	// Traces[s] is (cumulative instructions, window IPC) for scheme s.
	Traces  [][]IPCSample
	Speedup []float64 // over HMC, per scheme
}

// IPCSample is one Fig 5.8 sample point.
type IPCSample struct {
	MInsts float64 // cumulative instructions, millions
	IPC    float64
}

// Fig58 runs the case study at the given scale: figure 5.8 of the figure
// table, on in-process runs.
func Fig58(scale workload.Scale) (*Fig58Result, error) {
	f, _ := FigureByID("5.8")
	data, err := f.Compute(context.Background(), scale, sweep.Direct(nil, nil))
	if err != nil {
		return nil, err
	}
	return data.(*Fig58Result), nil
}

// fig58From derives the case study tables from a suite of lud_phase runs,
// one per scheme in trace order. Speedups derive only after every run
// completed: an earlier version read the HMC cycle count before it was
// guaranteed set, so any scheme ordered ahead of HMC got 0/cycles = +Inf.
func fig58From(s *Suite) (*Fig58Result, error) {
	out := &Fig58Result{Schemes: s.Schemes}
	cycles := make([]uint64, len(s.Schemes))
	for i, sch := range s.Schemes {
		r := s.Get("lud_phase", sch)
		var tr []IPCSample
		for _, p := range r.IPCTrace {
			tr = append(tr, IPCSample{MInsts: float64(p.Insts) / 1e6, IPC: p.IPC})
		}
		out.Traces = append(out.Traces, tr)
		cycles[i] = r.Cycles
	}
	sp, err := fig58Speedups(s.Schemes, cycles)
	if err != nil {
		return nil, err
	}
	out.Speedup = sp
	return out, nil
}

// fig58Speedups derives per-scheme speedups over the HMC baseline from the
// completed runs' cycle counts, in any scheme order.
func fig58Speedups(schemes []system.Scheme, cycles []uint64) ([]float64, error) {
	var hmc float64
	for i, sch := range schemes {
		if sch == system.SchemeHMC {
			hmc = float64(cycles[i])
		}
	}
	if hmc == 0 {
		return nil, fmt.Errorf("experiments: Fig 5.8: no HMC baseline run (or zero cycles)")
	}
	sp := make([]float64, len(schemes))
	for i, sch := range schemes {
		if cycles[i] == 0 {
			return nil, fmt.Errorf("experiments: Fig 5.8: zero cycle count for %s", sch)
		}
		sp[i] = hmc / float64(cycles[i])
	}
	return sp, nil
}

// Print renders the traces and speedup bars.
func (f *Fig58Result) Print(w io.Writer) {
	for si, sch := range f.Schemes {
		fmt.Fprintf(w, "--- %s IPC trace (Minsts, IPC)\n", sch)
		step := len(f.Traces[si])/16 + 1
		for i := 0; i < len(f.Traces[si]); i += step {
			p := f.Traces[si][i]
			fmt.Fprintf(w, "  %8.3f %6.2f\n", p.MInsts, p.IPC)
		}
	}
	fmt.Fprintf(w, "speedup over HMC:")
	for si, sch := range f.Schemes {
		fmt.Fprintf(w, "  %s=%.2fx", sch, f.Speedup[si])
	}
	fmt.Fprintln(w)
}

// printTable41 renders Table 4.1 for cfg.
func printTable41(w io.Writer, cfg system.Config) {
	rows := [][2]string{
		{"CPU Core", fmt.Sprintf("%d O3cores @ 2 GHz, issue/commit width %d, ROB %d",
			cfg.Threads, cfg.Core.IssueWidth, cfg.Core.ROBSize)},
		{"L1 D-Cache", fmt.Sprintf("private, %d KB, %d-way (scaled from 16 KB with inputs)",
			cfg.L1.SizeBytes>>10, cfg.L1.Ways)},
		{"L2 Cache", fmt.Sprintf("S-NUCA, %d KB total over 16 banks, %d-way, MESI directory (scaled from 16 MB)",
			16*cfg.L2.BankSizeBytes>>10, cfg.L2.Ways)},
		{"NoC", "4x4 mesh, 4 MCs at 4 corners"},
		{"DRAM baseline", fmt.Sprintf("%d MCs, %d ranks/channel, %d banks/rank, tRCD=%d tRAS=%d tRP=%d tCL=%d tBL=%d",
			cfg.DRAMGeom.Channels, cfg.DRAMGeom.RanksPerChan, cfg.DRAMGeom.BanksPerRank,
			cfg.DRAMTiming.RCD, cfg.DRAMTiming.RAS, cfg.DRAMTiming.RP, cfg.DRAMTiming.CL, cfg.DRAMTiming.BL)},
		{"HMC", fmt.Sprintf("%d cubes, %d vaults/cube, %d banks/vault",
			cfg.HMCGeom.Cubes, cfg.HMCGeom.VaultsPerCube, cfg.HMCGeom.BanksPerVault)},
		{"HMC-Net", fmt.Sprintf("16-cube dragonfly, 4 controllers, minimal routing, virtual cut-through, %d B/cycle links, crossbar @ 1 GHz",
			cfg.MemNet.LinkBandwidth)},
		{"ARE", fmt.Sprintf("flow table %d, operand buffers %d, decode %d/cycle, ALU %d/cycle",
			cfg.ARE.MaxFlows, cfg.ARE.OperandBufs, cfg.ARE.DecodeRate, cfg.ARE.ALURate)},
	}
	fmt.Fprintln(w, "Table 4.1: System Configurations (as simulated)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %s\n", r[0], r[1])
	}
}
