package system_test

import (
	"bytes"
	"context"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestCheckpointKernelIndependent requires a checkpoint to be a function of
// the machine, not of the scheduler that ran it. For every golden config at
// ScaleTiny, one machine runs idle-aware and one under Lockstep; each takes
// a checkpoint at the first quiescent point at or after cycle 300 and again
// at or after cycle 1,000, then runs to completion with its golden Results
// digest. Both must land at the same cycles with byte-equal blobs, and each
// blob must restore and finish with the golden digest under either kernel.
// A core section that carried scheduler state (when the core was last
// polled, and stall cycles not yet credited) fails every pair.
func TestCheckpointKernelIndependent(t *testing.T) {
	var ran, pairs atomic.Int32
	t.Cleanup(func() {
		// 14 of the 126 requests find the run finished first.
		if int(ran.Load()) == len(golden) && pairs.Load() != 112 {
			t.Errorf("%d checkpoint pairs compared, want 112", pairs.Load())
		}
	})
	for _, g := range golden {
		g := g
		t.Run(g.workload+"/"+g.scheme.String(), func(t *testing.T) {
			t.Parallel()
			ran.Add(1)
			restore := func(lockstep bool, blob []byte, what string) {
				sys := buildSys(t, g.scheme, g.workload)
				sys.Engine().Lockstep = lockstep
				if err := sys.Restore(blob); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if d := resultsDigest(t, res); d != g.digest {
					t.Errorf("%s: Results digest = %s, want golden %s", what, d, g.digest)
				}
			}
			var blobs [2][][]byte // [idle-aware, Lockstep][checkpoint]
			var cycles [2][]uint64
			for k, lockstep := range []bool{false, true} {
				sys := buildSys(t, g.scheme, g.workload)
				sys.Engine().Lockstep = lockstep
				for _, at := range []uint64{300, 1000} {
					blob, err := sys.RunToCheckpoint(context.Background(), at, nil)
					if err != nil {
						t.Fatal(err)
					}
					if blob == nil {
						break
					}
					blobs[k] = append(blobs[k], blob)
					cycles[k] = append(cycles[k], sys.Engine().Cycle())
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				if d := resultsDigest(t, res); d != g.digest {
					t.Errorf("checkpointed machine (Lockstep %v): Results digest = %s, want golden %s", lockstep, d, g.digest)
				}
			}
			if !reflect.DeepEqual(cycles[0], cycles[1]) {
				t.Fatalf("checkpoints landed at cycles %v idle-aware, %v under Lockstep", cycles[0], cycles[1])
			}
			for i, blob := range blobs[0] {
				pairs.Add(1)
				if !bytes.Equal(blob, blobs[1][i]) {
					t.Errorf("checkpoint at cycle %d: idle-aware and Lockstep blobs differ (%d vs %d bytes)", cycles[0][i], len(blob), len(blobs[1][i]))
				}
				restore(false, blob, "idle-aware restore")
				restore(true, blob, "Lockstep restore")
			}
		})
	}
}
