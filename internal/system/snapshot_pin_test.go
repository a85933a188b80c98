package system_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/system"
)

// TestSnapshotWireFormatPinned pins the checkpoint wire format across
// builds: three ScaleTiny runs at DefaultConfig are checkpointed and each
// blob's exact length, landing cycle and FNV-64a digest must match the
// recorded values. TestCheckpointRoundTrip only checks that one build
// agrees with itself; this test fails when a change reorders, adds or
// drops a snapshot section or field. A deliberate format change bumps
// snapshotVersion and re-records these values. Version 3 re-recorded all
// three at the same landing cycles, each 192 bytes shorter: the core
// section dropped its scheduler state (16 cores × a 12-byte last-polled
// cycle and stall reason), and the stall counters are settled to the
// snapshot cycle. Version 4 re-recorded them at the same landing cycles
// again. Every blob lost the cores' fence kind and target (16 × 12 bytes),
// the header's per-tile memory tags (16 × 8) and barrier crossing count
// (8), and each fabric's zero word (8), and gained the barrier section (31
// bytes plus 8 per waiting thread id). lud/DRAM: −192 −128 −8 −8 +151 (15
// waiters) = −185. mac/HMC also lost the four HMC controller sections
// (4 × 30) and a second fabric word: −433. lud/ARF-tid also lost those,
// the 16 MI sections (16 × 18) and the ARE and coordinator tag counters
// (17 × 8): −737.
func TestSnapshotWireFormatPinned(t *testing.T) {
	cases := []struct {
		workload string
		scheme   system.Scheme
		at       uint64
		cycle    uint64
		bytes    int
		fnv      string
	}{
		{"lud", system.SchemeARFtid, 4000, 6441, 206825, "e2f24f5f2ddbefc9"},
		{"lud", system.SchemeDRAM, 1457, 1914, 82413, "dad46af0b17b8266"},
		{"mac", system.SchemeHMC, 775, 1550, 211909, "07b74677e3e57083"},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+c.scheme.String(), func(t *testing.T) {
			t.Parallel()
			sys := buildSys(t, c.scheme, c.workload)
			blob, err := sys.RunToCheckpoint(context.Background(), c.at, nil)
			if err != nil {
				t.Fatal(err)
			}
			if blob == nil {
				t.Fatalf("no checkpoint at or after cycle %d", c.at)
			}
			if got := sys.Engine().Cycle(); got != c.cycle {
				t.Errorf("checkpoint landed at cycle %d, want %d", got, c.cycle)
			}
			h := fnv.New64a()
			h.Write(blob)
			if got := fmt.Sprintf("%016x", h.Sum64()); len(blob) != c.bytes || got != c.fnv {
				t.Fatalf("blob = %d bytes, FNV-64a %s; want %d bytes, %s", len(blob), got, c.bytes, c.fnv)
			}
		})
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestSnapshotAllocations bounds the allocations System.Snapshot makes when
// its buffer already has room for the blob: the configuration's PrefixHash
// (11 of the 18), the encoding stream and the sorted key lists of the
// map-keyed sections. The ceilings are the counts
// measured when the component sections came to share one sim.Stream code
// path (before it: 71 and 33, mostly the fabric's credit scratch and
// sort.Slice closures). A Stream passed through an interface, or a streamed
// local that escapes, adds allocations per field and fails this test.
func TestSnapshotAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what escapes to the heap")
	}
	cases := []struct {
		workload string
		scheme   system.Scheme
		at       uint64
		max      float64
	}{
		{"lud", system.SchemeARFtid, 4000, 18},
		{"lud", system.SchemeDRAM, 1457, 18},
	}
	for _, c := range cases {
		t.Run(c.workload+"/"+c.scheme.String(), func(t *testing.T) {
			sys := buildSys(t, c.scheme, c.workload)
			blob, err := sys.RunToCheckpoint(context.Background(), c.at, nil)
			if err != nil || blob == nil {
				t.Fatalf("no checkpoint at or after cycle %d (err=%v)", c.at, err)
			}
			buf := make([]byte, 0, 2*len(blob))
			got := testing.AllocsPerRun(20, func() { sys.Snapshot(buf[:0]) })
			if got > c.max {
				t.Fatalf("Snapshot made %v allocations per call, want at most %v", got, c.max)
			}
		})
	}
}
