package system_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/system"
	"repro/internal/workload"
)

// TestLockstepOracle is the mechanical check of the idle/wake contract
// (DESIGN.md): every config of the golden matrix runs once under the
// idle-aware scheduler and once with sim.Engine.Lockstep, which ticks every
// component every cycle and never calls NextWork, and the two full Results
// must be reflect.DeepEqual. A NextWork that skips a Tick with work to do,
// a missed wake, or a skipped cycle whose stall counter is not credited
// (MemStalls, OffloadStalls, ROBFullCycles, EnqueueRejects) fails here
// with the first differing field, where the golden digests only say that
// some field moved.
func TestLockstepOracle(t *testing.T) {
	wls := append(append([]string{}, workload.Benchmarks()...), workload.Microbenchmarks()...)
	for _, wl := range wls {
		for _, sch := range system.AllSchemes() {
			wl, sch := wl, sch
			t.Run(wl+"/"+sch.String(), func(t *testing.T) {
				t.Parallel()
				var runs [2]*system.Results
				for i := range runs {
					sys, err := system.New(system.DefaultConfig(sch), wl, workload.ScaleTiny)
					if err != nil {
						t.Fatal(err)
					}
					sys.Engine().Lockstep = i == 1
					if runs[i], err = sys.Run(); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(runs[0], runs[1]) {
					t.Errorf("idle-aware run differs from lockstep at %s", firstDiff(reflect.ValueOf(*runs[0]), reflect.ValueOf(*runs[1]), "Results"))
				}
			})
		}
	}
}

// firstDiff names the first exported field path at which a and b differ.
func firstDiff(a, b reflect.Value, path string) string {
	if a.Kind() == reflect.Pointer && !a.IsNil() && !b.IsNil() {
		return firstDiff(a.Elem(), b.Elem(), path)
	}
	if a.Kind() == reflect.Struct {
		for i := 0; i < a.NumField(); i++ {
			if f := a.Type().Field(i); f.IsExported() && !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
				return firstDiff(a.Field(i), b.Field(i), path+"."+f.Name)
			}
		}
	}
	return path
}

// TestRefusedComponentsDoNotTick pins what the backpressure wakes buy. The
// lockstep kernel ticks a refused core or MI once per refused cycle, so
// its Ticks exceed its stall count. A core waiting for an MSHR or an MI
// slot must instead run at most half as many Ticks as it credits stalls,
// and an MI waiting for a coordinator port fewer Ticks than it credits
// rejected enqueues.
func TestRefusedComponentsDoNotTick(t *testing.T) {
	for _, c := range []struct {
		wl     string
		scheme system.Scheme
	}{{"backprop", system.SchemeDRAM}, {"sgemm", system.SchemeART}} {
		sys, err := system.New(system.DefaultConfig(c.scheme), c.wl, workload.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		ticks := map[string]uint64{}
		e := sys.Engine()
		for i := 0; i < e.Components(); i++ {
			ticks[strings.TrimRight(e.Name(i), "0123456789")] += e.Ticks(i)
		}
		stalls := res.CoreStats.MemStalls + res.CoreStats.OffloadStalls
		if stalls == 0 || 2*ticks["core"] > stalls {
			t.Errorf("%s/%s: cores ticked %d times for %d refused cycles", c.wl, c.scheme, ticks["core"], stalls)
		}
		if rej := res.Coord.EnqueueRejects; c.scheme.Active() && (rej == 0 || ticks["mi."] >= rej) {
			t.Errorf("%s/%s: MIs ticked %d times for %d rejected enqueues", c.wl, c.scheme, ticks["mi."], rej)
		}
	}
}
