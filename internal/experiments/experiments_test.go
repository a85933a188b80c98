package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/system"
	"repro/internal/workload"
)

// microSuite runs the microbenchmarks at tiny scale once per test binary.
var microSuiteCache *Suite

func microSuite(t *testing.T) *Suite {
	t.Helper()
	if microSuiteCache == nil {
		s, err := RunSuite(workload.ScaleTiny, workload.Microbenchmarks(), system.Schemes(), nil)
		if err != nil {
			t.Fatal(err)
		}
		microSuiteCache = s
	}
	return microSuiteCache
}

func TestFig51Structure(t *testing.T) {
	s := microSuite(t)
	tab, err := Fig51(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Speedup) != 4 || len(tab.Speedup[0]) != 5 {
		t.Fatalf("table shape %dx%d", len(tab.Speedup), len(tab.Speedup[0]))
	}
	for wi := range tab.Speedup {
		if tab.Speedup[wi][0] != 1.0 {
			t.Fatalf("DRAM speedup over itself must be 1.0, got %v", tab.Speedup[wi][0])
		}
		for si := range tab.Speedup[wi] {
			if tab.Speedup[wi][si] <= 0 {
				t.Fatal("non-positive speedup")
			}
		}
	}
	if tab.GMean[0] != 1.0 {
		t.Fatalf("DRAM gmean = %v", tab.GMean[0])
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	if !strings.Contains(buf.String(), "gmean") {
		t.Fatal("rendered table missing gmean row")
	}
}

func TestFig52Structure(t *testing.T) {
	s := microSuite(t)
	tab := Fig52(s)
	if len(tab.Schemes) != 3 {
		t.Fatalf("latency table must cover the 3 AR schemes, got %d", len(tab.Schemes))
	}
	for wi := range tab.Req {
		for si := range tab.Req[wi] {
			if tab.Req[wi][si] < 0 || tab.Resp[wi][si] <= 0 {
				t.Fatalf("latency components implausible at %d/%d", wi, si)
			}
		}
	}
	var buf bytes.Buffer
	tab.Print(&buf)
	if !strings.Contains(buf.String(), "stall") {
		t.Fatal("render missing stall column")
	}
}

func TestFig54Structure(t *testing.T) {
	s := microSuite(t)
	tab, err := Fig54(s)
	if err != nil {
		t.Fatal(err)
	}
	// HMC normalized to itself: totals must be 1.0.
	for wi := range tab.Workloads {
		if diff := tab.Total(wi, 0) - 1.0; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("HMC total for %s = %v, want 1.0", tab.Workloads[wi], tab.Total(wi, 0))
		}
		// The HMC baseline has no active traffic.
		if tab.ActiveReq[wi][0] != 0 || tab.ActiveResp[wi][0] != 0 {
			t.Fatal("HMC row has active components")
		}
	}
}

func TestFig55to57Structure(t *testing.T) {
	s := microSuite(t)
	e, err := Fig55to57(s, false)
	if err != nil {
		t.Fatal(err)
	}
	for wi := range e.Workloads {
		// DRAM normalized to itself.
		total := e.Cache[wi][0] + e.Memory[wi][0] + e.Network[wi][0]
		if total < 0.999 || total > 1.001 {
			t.Fatalf("DRAM energy total = %v, want 1.0", total)
		}
		if e.Network[wi][0] != 0 {
			t.Fatal("DRAM has no network energy")
		}
		if e.EDP[wi][0] != 1.0 {
			t.Fatalf("DRAM EDP = %v", e.EDP[wi][0])
		}
	}
	p, err := Fig55to57(s, true)
	if err != nil {
		t.Fatal(err)
	}
	if p.EDPGM[0] != 1.0 {
		t.Fatal("power table EDP gmean for DRAM must be 1.0")
	}
}

func TestFig53Heatmaps(t *testing.T) {
	s, err := RunSuite(workload.ScaleTiny, []string{"lud"},
		[]system.Scheme{system.SchemeDRAM, system.SchemeHMC, system.SchemeARFtid, system.SchemeARFaddr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets := Fig53(s)
	if len(sets) != 2 {
		t.Fatalf("want ARF-tid and ARF-addr sets, got %d", len(sets))
	}
	for _, set := range sets {
		if len(set.Updates) != 16 {
			t.Fatal("heatmap must have 16 cells")
		}
		var total uint64
		for _, c := range set.Updates {
			total += c
		}
		if total == 0 {
			t.Fatalf("%s: empty update heatmap", set.Scheme)
		}
	}
	var buf bytes.Buffer
	PrintHeatmaps(&buf, sets)
	if !strings.Contains(buf.String(), "operand buffer stalls") {
		t.Fatal("heatmap render incomplete")
	}
}

func TestFig58CaseStudy(t *testing.T) {
	res, err := Fig58(workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 3 {
		t.Fatalf("want 3 traces, got %d", len(res.Traces))
	}
	if res.Speedup[0] != 1.0 {
		t.Fatalf("HMC speedup over itself = %v", res.Speedup[0])
	}
	for i, tr := range res.Traces {
		if len(tr) == 0 {
			t.Fatalf("trace %d empty", i)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "speedup over HMC") {
		t.Fatal("case study render incomplete")
	}
}

func TestTable41Renders(t *testing.T) {
	f, ok := FigureByID("table4.1")
	if !ok {
		t.Fatal("no table4.1 figure")
	}
	data, err := f.Derive(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f.Render(&buf, data)
	for _, want := range []string{"O3cores", "dragonfly", "banks/vault", "flow table"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table 4.1 render missing %q", want)
		}
	}
}

func TestSuiteAccessors(t *testing.T) {
	s := microSuite(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Get of missing run must panic")
		}
	}()
	s.Get("nonexistent", system.SchemeDRAM)
}

func TestGMean(t *testing.T) {
	g, err := gmean([]float64{2, 8})
	if err != nil || g != 4 {
		t.Fatalf("gmean(2,8) = %v, %v", g, err)
	}
	// Degenerate inputs are errors now, not a silent 0 that collapses the
	// whole mean.
	for _, vs := range [][]float64{nil, {0, 1}, {-2, 4}, {math.NaN()}, {math.Inf(1)}} {
		if _, err := gmean(vs); err == nil {
			t.Fatalf("gmean(%v) accepted", vs)
		}
	}
}

// fakeSuite builds a suite from hand-made results (zero-denominator tests).
func fakeSuite(workloads []string, schemes []system.Scheme, make_ func(wl string, sch system.Scheme) *system.Results) *Suite {
	s := &Suite{Workloads: workloads, Schemes: schemes, Results: map[Key]*system.Results{}}
	for _, wl := range workloads {
		for _, sch := range schemes {
			s.Results[Key{wl, sch}] = make_(wl, sch)
		}
	}
	return s
}

// TestFig54ZeroBaselineErrors: a workload whose HMC run moved zero bytes
// must fail the derivation, not emit NaN/Inf bars.
func TestFig54ZeroBaselineErrors(t *testing.T) {
	s := fakeSuite([]string{"w"}, []system.Scheme{system.SchemeHMC},
		func(wl string, sch system.Scheme) *system.Results {
			return &system.Results{Scheme: sch, Workload: wl} // zero movement
		})
	if _, err := Fig54(s); err == nil || !strings.Contains(err.Error(), "baseline") {
		t.Fatalf("zero HMC movement accepted: %v", err)
	}
}

// TestFig55to57ZeroBaselineErrors: zero DRAM energy/power/EDP baselines
// must fail the derivation.
func TestFig55to57ZeroBaselineErrors(t *testing.T) {
	s := fakeSuite([]string{"w"}, []system.Scheme{system.SchemeDRAM},
		func(wl string, sch system.Scheme) *system.Results {
			return &system.Results{Scheme: sch, Workload: wl} // zero energy/EDP
		})
	if _, err := Fig55to57(s, false); err == nil {
		t.Fatal("zero DRAM energy baseline accepted")
	}
	if _, err := Fig55to57(s, true); err == nil {
		t.Fatal("zero DRAM power baseline accepted")
	}
}

// TestFig58SpeedupDerivation pins the reordering bug: speedups derive from
// the completed cycle counts whatever position HMC holds in the scheme
// slice — the old code read the HMC baseline before it was set, yielding
// +Inf for schemes ordered ahead of it.
func TestFig58SpeedupDerivation(t *testing.T) {
	schemes := []system.Scheme{system.SchemeARFtid, system.SchemeHMC, system.SchemeARFtidAdaptive}
	sp, err := fig58Speedups(schemes, []uint64{500, 1000, 250})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 1, 4}
	for i := range sp {
		if sp[i] != want[i] {
			t.Fatalf("speedup[%d] = %v, want %v", i, sp[i], want[i])
		}
		if math.IsInf(sp[i], 0) || math.IsNaN(sp[i]) {
			t.Fatalf("speedup[%d] non-finite", i)
		}
	}
	if _, err := fig58Speedups([]system.Scheme{system.SchemeARFtid}, []uint64{500}); err == nil {
		t.Fatal("missing HMC baseline accepted")
	}
}

// TestFig58TraceFinite asserts the Fig 5.8 acceptance properties at
// ScaleTiny. The aggregate trace comes from the cycle-windowed machine
// sampler, so every point must be finite and no window may record the
// IPC-equals-window-size spike signature. The per-core traces are the
// instruction-windowed stats.IPCSeries whose batched multi-window closure
// previously fabricated exactly that spike (unit-level regression in
// internal/stats); end to end, no per-core window may exceed the core's
// commit width — the spike (IPC = 2^14) violates that bound by three
// orders of magnitude.
func TestFig58TraceFinite(t *testing.T) {
	res, err := Fig58(workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	window := float64(system.DefaultConfig(system.SchemeHMC).IPCSampleCycles)
	for si, tr := range res.Traces {
		for _, p := range tr {
			if math.IsNaN(p.IPC) || math.IsInf(p.IPC, 0) || p.IPC < 0 {
				t.Fatalf("scheme %d: non-finite IPC %v", si, p.IPC)
			}
			if p.IPC == window {
				t.Fatalf("scheme %d: IPC equals the sampling window %v (spike signature)", si, p.IPC)
			}
		}
	}
	for si, sp := range res.Speedup {
		if math.IsNaN(sp) || math.IsInf(sp, 0) || sp <= 0 {
			t.Fatalf("speedup[%d] = %v", si, sp)
		}
	}

	cfg := system.DefaultConfig(system.SchemeARFtid)
	sys, err := system.New(cfg, "lud_phase", workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	maxIPC := float64(cfg.Core.CommitWidth)
	for ci, tr := range r.CoreIPC {
		for _, p := range tr {
			if math.IsNaN(p.IPC) || math.IsInf(p.IPC, 0) || p.IPC < 0 || p.IPC > maxIPC {
				t.Fatalf("core %d: window IPC %v outside (0, commit width %v]", ci, p.IPC, maxIPC)
			}
		}
	}
}

// TestRunSuiteCancelled: a cancelled context aborts the suite before any
// run starts.
func TestRunSuiteCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int64
	s, err := RunSuiteCtx(ctx, workload.ScaleTiny, workload.Microbenchmarks(), system.Schemes(),
		func(cfg *system.Config) { started.Add(1) })
	if s != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled suite returned (%v, %v)", s, err)
	}
	if n := started.Load(); n != 0 {
		t.Fatalf("%d runs started under a cancelled context", n)
	}
}

// TestRunSuiteFailFast: an invalid workload fails the suite with its error
// (not a hang or a full-grid run-out).
func TestRunSuiteFailFast(t *testing.T) {
	_, err := RunSuite(workload.ScaleTiny, []string{"no_such_workload"}, system.Schemes(), nil)
	if err == nil || !strings.Contains(err.Error(), "no_such_workload") {
		t.Fatalf("err = %v", err)
	}
}
