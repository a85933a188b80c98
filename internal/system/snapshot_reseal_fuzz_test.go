package system

import (
	"context"
	"encoding/binary"
	"testing"

	"repro/internal/workload"
)

// FuzzSnapshotResealed mutates the body of genuine checkpoints and
// recomputes the integrity trailer, so each mutation reaches the section
// decoders instead of failing the checksum as nearly all of
// FuzzSnapshotDecode's do. Restore must return, with an error or with
// success, without panicking. The seeds span every section kind: a
// DRAM-backed machine, a plain HMC machine, an Active-Routing machine and
// the earlyGather checkpoint, the one holding live ARE flow entries and a
// coordinator flow.
func FuzzSnapshotResealed(f *testing.F) {
	seeds := []struct {
		build func() (*System, error)
		at    uint64
	}{
		{func() (*System, error) { return New(DefaultConfig(SchemeARFtid), "mac", workload.ScaleTiny) }, 500},
		{func() (*System, error) { return New(DefaultConfig(SchemeDRAM), "lud", workload.ScaleTiny) }, 1457},
		{func() (*System, error) { return New(DefaultConfig(SchemeHMC), "mac", workload.ScaleTiny) }, 775},
		{func() (*System, error) { return NewWith(DefaultConfig(SchemeARFtid), &earlyGather{}) }, 200},
	}
	for i, sd := range seeds {
		sys, err := sd.build()
		if err != nil {
			f.Fatal(err)
		}
		snap, err := sys.RunToCheckpoint(context.Background(), sd.at, nil)
		if err != nil || snap == nil {
			f.Fatalf("seed %d: no checkpoint at or after cycle %d (err=%v)", i, sd.at, err)
		}
		f.Add(uint8(i), snap[:len(snap)-8])
	}

	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		sys, err := seeds[int(which)%len(seeds)].build()
		if err != nil {
			t.Fatal(err)
		}
		blob := binary.LittleEndian.AppendUint64(append([]byte(nil), body...), snapshotSum(body))
		_ = sys.Restore(blob) // an error or a success; only a panic fails
	})
}
