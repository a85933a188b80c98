package system

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRestoreRejectsStaleVersion re-stamps a valid blob as wire-format
// version 2, the last one that carried core scheduler state (with a
// recomputed integrity trailer, so only the version is wrong), and
// requires Restore to refuse it by version.
func TestRestoreRejectsStaleVersion(t *testing.T) {
	build := func() *System {
		sys, err := New(DefaultConfig(SchemeARFtid), "mac", workload.ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	blob, err := build().RunToCheckpoint(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no checkpoint found")
	}
	hdr := &sim.Enc{}
	hdr.Tag("arsys")
	binary.LittleEndian.PutUint64(blob[len(hdr.B):], 2)
	body := blob[:len(blob)-8]
	binary.LittleEndian.PutUint64(blob[len(body):], snapshotSum(body))

	err = build().Restore(blob)
	if err == nil || !strings.Contains(err.Error(), "snapshot version 2, this build reads 3") {
		t.Fatalf("Restore of a version-2 blob = %v, want the stale-version error", err)
	}
}
