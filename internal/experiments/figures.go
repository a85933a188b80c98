package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/workload"
)

// SuiteSpec is one workload × scheme cross product a figure derives from.
type SuiteSpec struct {
	Workloads []string
	Schemes   []system.Scheme
}

// Figure is one row of the figure table: everything arbench prints and
// /figures serves under one id.
type Figure struct {
	ID string
	// Suites is the figure's job set: one cross product per suite.
	Suites []SuiteSpec
	// Derive computes the figure's data, the /figures JSON value, from one
	// completed suite per entry of Suites.
	Derive func(suites []*Suite) (any, error)
	// Render writes Derive's value as arbench prints it, header lines
	// included.
	Render func(w io.Writer, data any)
}

// Pair is a figure drawn once over the benchmarks and once over the
// microbenchmarks.
type Pair[T any] struct {
	Benchmarks      T `json:"benchmarks"`
	Microbenchmarks T `json:"microbenchmarks"`
}

var (
	benchJobs = SuiteSpec{workload.Benchmarks(), system.Schemes()}
	microJobs = SuiteSpec{workload.Microbenchmarks(), system.Schemes()}
)

// figures is the table, in thesis order.
var figures = []Figure{
	{
		ID:     "table4.1",
		Derive: func([]*Suite) (any, error) { return system.DefaultConfig(system.SchemeARFtid), nil },
		Render: func(w io.Writer, data any) { printTable41(w, data.(system.Config)) },
	},
	single("5.1a", "Figure 5.1(a): Runtime Speedup over DRAM (benchmarks)",
		benchJobs, Fig51, (*SpeedupTable).Print),
	single("5.1b", "Figure 5.1(b): Runtime Speedup over DRAM (microbenchmarks)",
		microJobs, Fig51, (*SpeedupTable).Print),
	single("5.2a", "Figure 5.2(a): Update Roundtrip Latency Breakdown (benchmarks)",
		benchJobs, noErr(Fig52), (*LatencyTable).Print),
	single("5.2b", "Figure 5.2(b): Update Roundtrip Latency Breakdown (microbenchmarks)",
		microJobs, noErr(Fig52), (*LatencyTable).Print),
	single("5.3", "Figure 5.3: LUD Stalls and Update Distribution (per-cube 4x4 grids)",
		SuiteSpec{[]string{"lud"}, []system.Scheme{system.SchemeARFtid, system.SchemeARFaddr}},
		noErr(Fig53), func(s []HeatmapSet, w io.Writer) { PrintHeatmaps(w, s) }),
	paired("5.4", []string{
		"Figure 5.4(a): Data Movement normalized to HMC (benchmarks)",
		"Figure 5.4(b): Data Movement normalized to HMC (microbenchmarks)",
	}, Fig54, func(t *MovementTable, w io.Writer, _ string) { t.Print(w) }),
	paired("5.5", []string{
		"Figure 5.5(a): Normalized Power over DRAM (benchmarks)",
		"Figure 5.5(b): Normalized Power over DRAM (microbenchmarks)",
	}, energy(true), (*EnergyTable).Print),
	paired("5.6", []string{
		"Figure 5.6(a): Normalized Energy over DRAM (benchmarks)",
		"Figure 5.6(b): Normalized Energy over DRAM (microbenchmarks)",
	}, energy(false), (*EnergyTable).Print),
	paired("5.7", []string{
		"Figure 5.7: Normalized Energy-Delay Product over DRAM",
	}, energy(false), (*EnergyTable).Print),
	single("5.8", "Figure 5.8: LUD Phase Analysis and Dynamic Offloading",
		SuiteSpec{[]string{"lud_phase"}, []system.Scheme{system.SchemeHMC, system.SchemeARFtid, system.SchemeARFtidAdaptive}},
		fig58From, (*Fig58Result).Print),
}

// single declares a figure derived from one suite and printed under one
// header line.
func single[T any](id, header string, suite SuiteSpec, derive func(*Suite) (T, error), render func(T, io.Writer)) Figure {
	return Figure{
		ID:     id,
		Suites: []SuiteSpec{suite},
		Derive: func(s []*Suite) (any, error) { return derive(s[0]) },
		Render: func(w io.Writer, data any) {
			fmt.Fprintln(w, header)
			render(data.(T), w)
		},
	}
}

// paired declares a figure derived once per suite of benchmarks and of
// microbenchmarks. headers[i], when present, precedes part i; each part is
// rendered with its suite's label.
func paired[T any](id string, headers []string, derive func(*Suite) (T, error), render func(T, io.Writer, string)) Figure {
	return Figure{
		ID:     id,
		Suites: []SuiteSpec{benchJobs, microJobs},
		Derive: func(s []*Suite) (any, error) {
			b, err := derive(s[0])
			if err != nil {
				return nil, err
			}
			m, err := derive(s[1])
			if err != nil {
				return nil, err
			}
			return &Pair[T]{Benchmarks: b, Microbenchmarks: m}, nil
		},
		Render: func(w io.Writer, data any) {
			p := data.(*Pair[T])
			for i, part := range []T{p.Benchmarks, p.Microbenchmarks} {
				if i < len(headers) {
					fmt.Fprintln(w, headers[i])
				}
				render(part, w, [2]string{"benchmarks", "microbenchmarks"}[i])
			}
		},
	}
}

// noErr adapts a derivation that cannot fail.
func noErr[T any](derive func(*Suite) T) func(*Suite) (T, error) {
	return func(s *Suite) (T, error) { return derive(s), nil }
}

// energy selects Fig55to57's power (Fig 5.5) or energy (5.6, 5.7) view.
func energy(asPower bool) func(*Suite) (*EnergyTable, error) {
	return func(s *Suite) (*EnergyTable, error) { return Fig55to57(s, asPower) }
}

// Figures returns the figure table in thesis order.
func Figures() []Figure { return append([]Figure(nil), figures...) }

// FigureByID looks a figure up in the table.
func FigureByID(id string) (Figure, bool) {
	for _, f := range figures {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// Compute runs the figure's job set through run, one suite after another
// with every run of a suite in flight at once (run alone bounds the
// simulation parallelism), and derives the figure's data.
func (f Figure) Compute(ctx context.Context, scale workload.Scale, run sweep.PointRunner) (any, error) {
	suites := make([]*Suite, len(f.Suites))
	for i, spec := range f.Suites {
		s, err := runSuite(ctx, scale, spec, nil, run)
		if err != nil {
			return nil, err
		}
		suites[i] = s
	}
	return f.Derive(suites)
}

// runSuite runs one suite on the grid executor: a grid with no axes, or
// with one single-valued axis carrying conf when it is set.
func runSuite(ctx context.Context, scale workload.Scale, spec SuiteSpec, conf Configure, run sweep.PointRunner) (*Suite, error) {
	g := sweep.Grid{Name: "suite", Scale: scale, Workloads: spec.Workloads, Schemes: spec.Schemes}
	if conf != nil {
		g.Axes = []sweep.Axis{{Name: "configure", Values: []sweep.Value{{Label: "configure", Apply: conf}}}}
	}
	results, err := sweep.Exec(ctx, g, g.Size(), run)
	if err != nil {
		return nil, err
	}
	s := &Suite{
		Scale:     scale,
		Workloads: spec.Workloads,
		Schemes:   spec.Schemes,
		Results:   make(map[Key]*system.Results, len(results)),
	}
	for i, r := range results {
		n := len(spec.Schemes)
		s.Results[Key{spec.Workloads[i/n], spec.Schemes[i%n]}] = r
	}
	return s, nil
}
