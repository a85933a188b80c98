package system

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// earlyGather is a one-flow workload whose thread 0 offloads its update and
// gathers at once while threads 1-15 first run a long stretch of integer
// work, so thread 0 sits gather-fenced across an early quiescent point.
type earlyGather struct {
	vals, sum workload.F64Array
}

func (w *earlyGather) Name() string { return "early_gather" }

func (w *earlyGather) Init(env *workload.Env) {
	w.vals = workload.NewF64Array(env, env.Threads)
	w.sum = workload.NewF64Array(env, 1)
	for i := 0; i < env.Threads; i++ {
		w.vals.Set(i, float64(i+1))
	}
	w.sum.Set(0, 0)
}

func (w *earlyGather) Streams(workload.Mode) []isa.Stream {
	threads := w.vals.N
	out := make([]isa.Stream, threads)
	for tid := range out {
		t := &workload.Trace{}
		if tid > 0 {
			for i := 0; i < 4000; i++ {
				t.Int()
			}
		}
		t.Update(w.vals.At(tid), 0, w.sum.At(0), isa.OpAdd)
		t.Gather(w.sum.At(0), threads)
		out[tid] = t.Stream()
	}
	return out
}

func (w *earlyGather) Verify() error {
	n := w.vals.N
	if got, want := w.sum.Get(0), float64(n*(n+1)/2); got != want {
		return fmt.Errorf("early_gather sum = %g, want %g", got, want)
	}
	return nil
}

// TestCheckpointRearmsGatherFence checkpoints while a core is fenced on a
// Gather whose flow is still collecting arrivals, so the coordinator
// section must list that thread on its flow and Restore must hand the
// flow back holding it. The restored run must match the straight run and
// re-encode to the same blob. The blob is the only pinned checkpoint
// holding live ARE flow entries and a coordinator flow, so its exact
// length and FNV-64a digest pin those sections' wire format the way
// TestSnapshotWireFormatPinned pins the rest (re-recorded with those pins
// for wire version 3, 192 bytes shorter, and for version 4, 849 bytes
// shorter: the lud/ARF-tid accounting with an empty barrier section, 31
// bytes, and one waiting id on the flow, 8).
func TestCheckpointRearmsGatherFence(t *testing.T) {
	build := func() *System {
		t.Helper()
		sys, err := NewWith(DefaultConfig(SchemeARFtid), &earlyGather{})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	want, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}

	src := build()
	snap, err := src.RunToCheckpoint(context.Background(), 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no quiescent point found at or after cycle 200")
	}
	if c := src.engine.Cycle(); c != 200 {
		t.Fatalf("checkpoint landed at cycle %d, want 200", c)
	}
	if n := src.coord.LiveFlows(); n != 1 {
		t.Fatalf("checkpoint holds %d coordinator flows, want thread 0's one", n)
	}
	if src.cores[0].Finished() {
		t.Fatal("thread 0 finished before the checkpoint; its gather fence is not held")
	}
	live := 0
	for _, c := range src.cubes {
		live += c.ARE().Flows.Size()
	}
	if live != 2 {
		t.Fatalf("checkpoint holds %d ARE flow entries, want 2", live)
	}
	h := fnv.New64a()
	h.Write(snap)
	if got := fmt.Sprintf("%016x", h.Sum64()); len(snap) != 208859 || got != "56a8607d0b4331e9" {
		t.Fatalf("blob = %d bytes, FNV-64a %s; want 208859 bytes, 56a8607d0b4331e9", len(snap), got)
	}

	dst := build()
	if err := dst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if again := dst.Snapshot(nil); !bytes.Equal(again, snap) {
		t.Fatalf("re-snapshot after restore differs from the blob (%d vs %d bytes)", len(again), len(snap))
	}
	got, err := dst.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("restored run diverged from straight run:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestRestoreRejectsInconsistentWaiters checkpoints lud/DRAM where 15
// threads wait at the barrier, edits the barrier's live waiter list before
// encoding, and requires Restore to refuse the blob: a thread listed twice
// or an unfenced core listed in place of a fenced one would otherwise
// release a core twice, release one that is not fenced, or never release
// one.
func TestRestoreRejectsInconsistentWaiters(t *testing.T) {
	build := func() *System {
		t.Helper()
		sys, err := New(DefaultConfig(SchemeDRAM), "lud", workload.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	edits := []struct {
		name string
		edit func(src *System, w []int)
	}{
		{"duplicate", func(_ *System, w []int) { w[1] = w[0] }},
		{"unfenced", func(src *System, w []int) {
			for _, c := range src.cores {
				if !c.Fenced() {
					w[0] = c.ID
					return
				}
			}
			t.Fatal("every core is fenced")
		}},
	}
	for _, e := range edits {
		t.Run(e.name, func(t *testing.T) {
			src := build()
			if snap, err := src.RunToCheckpoint(context.Background(), 1457, nil); err != nil || snap == nil {
				t.Fatalf("no checkpoint at or after cycle 1457 (err=%v)", err)
			}
			w := src.barrier.Waiting()
			if c := src.engine.Cycle(); c != 1914 || len(w) != 15 {
				t.Fatalf("checkpoint at cycle %d with %d barrier waiters, want cycle 1914 with 15", c, len(w))
			}
			e.edit(src, w)
			err := build().Restore(src.Snapshot(nil))
			if err == nil || !strings.Contains(err.Error(), "inconsistent snapshot") {
				t.Fatalf("Restore = %v, want the inconsistent-snapshot error", err)
			}
		})
	}
}
