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
// version 3, the last one that carried fence provenance and tag counters
// (with a recomputed integrity trailer, so only the version is wrong), and
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
	binary.LittleEndian.PutUint64(blob[len(hdr.B):], 3)
	body := blob[:len(blob)-8]
	binary.LittleEndian.PutUint64(blob[len(body):], snapshotSum(body))

	err = build().Restore(blob)
	if err == nil || !strings.Contains(err.Error(), "snapshot version 3, this build reads 4") {
		t.Fatalf("Restore of a version-3 blob = %v, want the stale-version error", err)
	}
}

// TestSnapshotKeyNamesVersion pins one snapshot store key. The key must
// name the wire version: the store never replaces a key's value, so a key
// without it would keep serving a blob of an older format that Restore
// refuses, and a prefix-shared sweep would run its leader cold on every
// run without ever storing a fresh blob.
func TestSnapshotKeyNamesVersion(t *testing.T) {
	cfg := DefaultConfig(SchemeARFtid)
	const want = "snap|v4|e83d88c9778da68f|1000|lud|ARF-tid|tiny"
	if got := SnapshotKey(&cfg, 1000, "lud", "tiny"); got != want {
		t.Fatalf("SnapshotKey = %q, want %q", got, want)
	}
}
