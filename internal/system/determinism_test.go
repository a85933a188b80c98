package system_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/system"
	"repro/internal/workload"
)

// TestDeterministicResults runs every registered workload under every
// scheme at ScaleTiny twice with the same seed and asserts the two Results
// are bit-identical — cycles, instruction counts, every counter, heatmap,
// latency breakdown, energy figure and IPC trace. This is the invariant
// the service layer's content-addressed cache depends on: a (Config,
// workload, scheme, scale) key may be served from cache only because a
// re-simulation could not produce anything different.
//
// reflect.DeepEqual covers the full Results struct, including the float64
// series: the simulator must be deterministic to the bit, not merely to a
// tolerance (the in-network reduction order is part of the machine
// definition, so even float reassociation differences would be a bug).
func TestDeterministicResults(t *testing.T) {
	for _, wl := range workload.Registered() {
		for _, sch := range system.AllSchemes() {
			wl, sch := wl, sch
			t.Run(wl+"/"+sch.String(), func(t *testing.T) {
				t.Parallel()
				runs := [2]*system.Results{}
				for i := range runs {
					sys, err := system.New(system.DefaultConfig(sch), wl, workload.ScaleTiny)
					if err != nil {
						t.Fatal(err)
					}
					runs[i], err = sys.Run()
					if err != nil {
						t.Fatal(err)
					}
				}
				if runs[0].Cycles != runs[1].Cycles {
					t.Errorf("cycles diverged across identical runs: %d vs %d", runs[0].Cycles, runs[1].Cycles)
				}
				if runs[0].Instructions != runs[1].Instructions {
					t.Errorf("instructions diverged: %d vs %d", runs[0].Instructions, runs[1].Instructions)
				}
				if !reflect.DeepEqual(runs[0], runs[1]) {
					t.Error("Results structs are not bit-identical across identical runs (nondeterministic counters, heatmaps or traces)")
				}
			})
		}
	}
}

// TestShardedDeterminism checks that machines running at the same time in
// one process do not disturb each other: for every suite workload under
// every scheme, two identical machines simulated concurrently each produce
// Results bit-identical to a machine run alone. Sweeps and the service
// gain their parallelism only by running whole machines side by side, so
// no state (traces, message pools, package-level caches) may leak between
// them. The name dates from when this test compared the since-removed
// sharded kernel with the sequential one; it is kept so the test keeps its
// identity across changes.
func TestShardedDeterminism(t *testing.T) {
	for _, wl := range append(append([]string{}, workload.Benchmarks()...), workload.Microbenchmarks()...) {
		for _, sch := range system.AllSchemes() {
			wl, sch := wl, sch
			t.Run(wl+"/"+sch.String(), func(t *testing.T) {
				t.Parallel()
				ref := runAlone(t, sch, wl)
				var (
					got  [2]*system.Results
					errs [2]error
					wg   sync.WaitGroup
				)
				for i := range got {
					sys, err := system.New(system.DefaultConfig(sch), wl, workload.ScaleTiny)
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						got[i], errs[i] = sys.Run()
					}(i)
				}
				wg.Wait()
				for i := range got {
					if errs[i] != nil {
						t.Fatalf("concurrent run %d: %v", i, errs[i])
					}
					if got[i].Cycles != ref.Cycles || got[i].Instructions != ref.Instructions {
						t.Errorf("concurrent run %d: cycles/insts = %d/%d, want %d/%d",
							i, got[i].Cycles, got[i].Instructions, ref.Cycles, ref.Instructions)
						continue
					}
					if !reflect.DeepEqual(got[i], ref) {
						t.Errorf("concurrent run %d: Results not bit-identical to a lone run", i)
					}
				}
			})
		}
	}
}

// runAlone builds and runs one machine at ScaleTiny.
func runAlone(t *testing.T, sch system.Scheme, wl string) *system.Results {
	t.Helper()
	sys, err := system.New(system.DefaultConfig(sch), wl, workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRegisteredConstructs keeps workload.Registered in sync with New's
// switch: every listed name must construct, and the suite lists must be
// subsets of the registry.
func TestRegisteredConstructs(t *testing.T) {
	reg := map[string]bool{}
	for _, name := range workload.Registered() {
		reg[name] = true
		if _, err := workload.New(name, workload.ScaleTiny, 16); err != nil {
			t.Errorf("registered workload %q does not construct: %v", name, err)
		}
	}
	for _, name := range append(workload.Benchmarks(), workload.Microbenchmarks()...) {
		if !reg[name] {
			t.Errorf("suite workload %q missing from Registered()", name)
		}
	}
}
