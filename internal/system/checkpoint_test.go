package system_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/system"
	"repro/internal/workload"
)

// buildSys constructs a fresh machine for a checkpoint test case.
func buildSys(t *testing.T, scheme system.Scheme, wl string) *system.System {
	t.Helper()
	sys, err := system.New(system.DefaultConfig(scheme), wl, workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// runStraight simulates a fresh machine to completion.
func runStraight(t *testing.T, scheme system.Scheme, wl string) *system.Results {
	t.Helper()
	res, err := buildSys(t, scheme, wl).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointRoundTrip is the tentpole equivalence property: snapshot a
// run at a mid-run quiescent point, restore into a fresh machine, run to
// completion, and require Results bit-identical (reflect.DeepEqual) to the
// straight-through run — for every scheme shape (DRAM backend, plain HMC,
// Active-Routing).
func TestCheckpointRoundTrip(t *testing.T) {
	cases := []struct {
		workload string
		scheme   system.Scheme
	}{
		// lud has barrier-phase drain points under the DRAM backend; a
		// workload that streams memory continuously (e.g. mac) never
		// quiesces mid-run there, and RunToCheckpoint correctly reports no
		// checkpoint (the cold-run fallback path, covered below).
		{"lud", system.SchemeDRAM},
		{"mac", system.SchemeHMC},
		{"mac", system.SchemeARFtid},
		{"rand_mac", system.SchemeART},
		{"reduce", system.SchemeARFaddr},
		{"backprop", system.SchemeARFtid},
		{"pagerank", system.SchemeARFtid},
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/"+c.scheme.String(), func(t *testing.T) {
			t.Parallel()
			want := runStraight(t, c.scheme, c.workload)
			// "seq-seq": the snapshot is taken and resumed on the
			// sequential engine.
			t.Run("seq-seq", func(t *testing.T) {
				src := buildSys(t, c.scheme, c.workload)
				snap, err := src.RunToCheckpoint(context.Background(), want.Cycles/2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if snap == nil {
					t.Fatalf("no quiescent point found at or after cycle %d", want.Cycles/2)
				}
				dst := buildSys(t, c.scheme, c.workload)
				if err := dst.Restore(snap); err != nil {
					t.Fatal(err)
				}
				got, err := dst.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("restored run diverged from straight-through run:\n got: %+v\nwant: %+v", got, want)
				}
			})
		})
	}
}

// TestCheckpointSourceContinues checks that taking a snapshot does not
// perturb the source machine: after RunToCheckpoint, the same machine runs
// on to completion with Results identical to a straight-through run.
func TestCheckpointSourceContinues(t *testing.T) {
	want := runStraight(t, system.SchemeARFtid, "mac")
	src := buildSys(t, system.SchemeARFtid, "mac")
	snap, err := src.RunToCheckpoint(context.Background(), want.Cycles/2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint found")
	}
	got, err := src.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("source run diverged after snapshot:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestCheckpointFinishBeforePoint checks the finished-first path: a
// checkpoint requested past the end of the run returns nil and the run is
// simply complete.
func TestCheckpointFinishBeforePoint(t *testing.T) {
	want := runStraight(t, system.SchemeHMC, "mac")
	src := buildSys(t, system.SchemeHMC, "mac")
	snap, err := src.RunToCheckpoint(context.Background(), want.Cycles*10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatal("got a checkpoint past the end of the run")
	}
	got, err := src.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("finished run diverged:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestRestoreRejectsMismatch checks restore validation: wrong workload,
// wrong scheme and a prefix-incompatible configuration are all refused.
func TestRestoreRejectsMismatch(t *testing.T) {
	src := buildSys(t, system.SchemeARFtid, "mac")
	snap, err := src.RunToCheckpoint(context.Background(), 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint found")
	}

	if err := buildSys(t, system.SchemeARFtid, "reduce").Restore(snap); err == nil {
		t.Error("restore into a different workload succeeded")
	}
	if err := buildSys(t, system.SchemeART, "mac").Restore(snap); err == nil {
		t.Error("restore into a different scheme succeeded")
	}
	cfg := system.DefaultConfig(system.SchemeARFtid)
	cfg.Seed = 7 // prefix-live knob
	other, err := system.New(cfg, "mac", workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil {
		t.Error("restore under a prefix-incompatible configuration succeeded")
	}

	// A divergence-tolerant knob (ARE.MaxFlows) restores fine.
	cfg = system.DefaultConfig(system.SchemeARFtid)
	cfg.ARE.MaxFlows = 512
	fork, err := system.New(cfg, "mac", workload.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := fork.Restore(snap); err != nil {
		t.Errorf("restore under a larger flow table failed: %v", err)
	}
}

// TestRestoreRejectsCorrupt checks that a truncated or bit-flipped
// snapshot never restores (it must error, not panic or silently succeed).
func TestRestoreRejectsCorrupt(t *testing.T) {
	src := buildSys(t, system.SchemeARFtid, "mac")
	snap, err := src.RunToCheckpoint(context.Background(), 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no checkpoint found")
	}
	for _, cut := range []int{0, 1, len(snap) / 2, len(snap) - 1} {
		if err := buildSys(t, system.SchemeARFtid, "mac").Restore(snap[:cut]); err == nil {
			t.Errorf("truncation to %d bytes restored successfully", cut)
		}
	}
}
