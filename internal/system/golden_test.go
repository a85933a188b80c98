package system_test

import (
	"testing"

	"repro/internal/system"
	"repro/internal/workload"
)

// TestGoldenCycleCounts pins the simulated cycle and instruction counts of
// every scheme × every suite workload (the five benchmarks and four
// microbenchmarks) at ScaleTiny — a scheme-coverage golden matrix. The
// backprop and mac rows were captured from the plain lockstep kernel before
// the idle-aware scheduler landed (PR 1); the remaining rows extend the
// matrix under the same kernel so a refactor can't silently perturb any
// scheme on any workload. Determinism is part of the machine definition:
// the idle-skip machinery, the fabric occupancy counters and every future
// performance change must keep these values bit-identical. Run() also
// verifies each workload's final memory state against a host-computed
// reference, so a pass covers functional correctness too.
//
// Refreshing these values is a machine-definition change: regenerate only
// when a PR deliberately alters simulated timing, and say so in DESIGN.md.
// Last regenerated for two timing-model changes (DESIGN.md "Simulation
// kernel: tick order"): 1-cycle credit turnaround on fabric links and
// next-cycle barrier release.
func TestGoldenCycleCounts(t *testing.T) {
	golden := []struct {
		workload string
		scheme   system.Scheme
		cycles   uint64
		insts    uint64
	}{
		{"backprop", system.SchemeDRAM, 3156, 5752},
		{"backprop", system.SchemeHMC, 2706, 5752},
		{"backprop", system.SchemeART, 4786, 4216},
		{"backprop", system.SchemeARFtid, 4332, 4216},
		{"backprop", system.SchemeARFaddr, 4786, 4216},
		{"backprop", system.SchemeARFtidAdaptive, 4332, 4216},
		{"backprop", system.SchemeARFea, 4786, 4216},
		{"lud", system.SchemeDRAM, 2915, 5880},
		{"lud", system.SchemeHMC, 3691, 5880},
		{"lud", system.SchemeART, 8227, 4344},
		{"lud", system.SchemeARFtid, 8011, 4344},
		{"lud", system.SchemeARFaddr, 8227, 4344},
		{"lud", system.SchemeARFtidAdaptive, 8011, 4344},
		{"lud", system.SchemeARFea, 8227, 4344},
		{"pagerank", system.SchemeDRAM, 2575, 1804},
		{"pagerank", system.SchemeHMC, 1292, 1804},
		{"pagerank", system.SchemeART, 1683, 1740},
		{"pagerank", system.SchemeARFtid, 1681, 1740},
		{"pagerank", system.SchemeARFaddr, 1683, 1740},
		{"pagerank", system.SchemeARFtidAdaptive, 1681, 1740},
		{"pagerank", system.SchemeARFea, 1683, 1740},
		{"sgemm", system.SchemeDRAM, 2146, 8784},
		{"sgemm", system.SchemeHMC, 1053, 8784},
		{"sgemm", system.SchemeART, 12334, 3600},
		{"sgemm", system.SchemeARFtid, 10730, 3600},
		{"sgemm", system.SchemeARFaddr, 12334, 3600},
		{"sgemm", system.SchemeARFtidAdaptive, 10730, 3600},
		{"sgemm", system.SchemeARFea, 12334, 3600},
		{"spmv", system.SchemeDRAM, 2922, 1880},
		{"spmv", system.SchemeHMC, 948, 1880},
		{"spmv", system.SchemeART, 3202, 956},
		{"spmv", system.SchemeARFtid, 2992, 956},
		{"spmv", system.SchemeARFaddr, 3202, 956},
		{"spmv", system.SchemeARFtidAdaptive, 2992, 956},
		{"spmv", system.SchemeARFea, 3202, 956},
		{"reduce", system.SchemeDRAM, 2436, 1552},
		{"reduce", system.SchemeHMC, 1019, 1552},
		{"reduce", system.SchemeART, 1488, 1040},
		{"reduce", system.SchemeARFtid, 1242, 1040},
		{"reduce", system.SchemeARFaddr, 1488, 1040},
		{"reduce", system.SchemeARFtidAdaptive, 1242, 1040},
		{"reduce", system.SchemeARFea, 1488, 1040},
		{"rand_reduce", system.SchemeDRAM, 2591, 1552},
		{"rand_reduce", system.SchemeHMC, 1154, 1552},
		{"rand_reduce", system.SchemeART, 1432, 1040},
		{"rand_reduce", system.SchemeARFtid, 1080, 1040},
		{"rand_reduce", system.SchemeARFaddr, 1432, 1040},
		{"rand_reduce", system.SchemeARFtidAdaptive, 1080, 1040},
		{"rand_reduce", system.SchemeARFea, 1432, 1040},
		{"mac", system.SchemeDRAM, 3618, 2576},
		{"mac", system.SchemeHMC, 1551, 2576},
		{"mac", system.SchemeART, 3042, 1040},
		{"mac", system.SchemeARFtid, 2058, 1040},
		{"mac", system.SchemeARFaddr, 3042, 1040},
		{"mac", system.SchemeARFtidAdaptive, 2058, 1040},
		{"mac", system.SchemeARFea, 3042, 1040},
		{"rand_mac", system.SchemeDRAM, 6001, 2576},
		{"rand_mac", system.SchemeHMC, 1936, 2576},
		{"rand_mac", system.SchemeART, 2700, 1040},
		{"rand_mac", system.SchemeARFtid, 1462, 1040},
		{"rand_mac", system.SchemeARFaddr, 2700, 1040},
		{"rand_mac", system.SchemeARFtidAdaptive, 1462, 1040},
		{"rand_mac", system.SchemeARFea, 2700, 1040},
	}
	// The matrix must stay total: every scheme × every suite workload.
	wls := append(append([]string{}, workload.Benchmarks()...), workload.Microbenchmarks()...)
	if want := len(wls) * len(system.AllSchemes()); len(golden) != want {
		t.Fatalf("golden matrix has %d entries, want %d (schemes × suite workloads)", len(golden), want)
	}
	for _, g := range golden {
		g := g
		t.Run(g.workload+"/"+g.scheme.String(), func(t *testing.T) {
			t.Parallel()
			sys, err := system.New(system.DefaultConfig(g.scheme), g.workload, workload.ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != g.cycles {
				t.Errorf("cycles = %d, want golden %d (simulated timing diverged from the lockstep kernel)", res.Cycles, g.cycles)
			}
			if res.Instructions != g.insts {
				t.Errorf("instructions = %d, want golden %d", res.Instructions, g.insts)
			}
		})
	}
}
