package sim

import "testing"

// TestChunkFIFOOrderAcrossChunks interleaves pushes and pops so the queue
// repeatedly crosses chunk boundaries, empties and refills, and checks that
// every element comes out in push order.
func TestChunkFIFOOrderAcrossChunks(t *testing.T) {
	var q ChunkFIFO[int]
	next, want := 0, 0
	pop := func(k int) {
		for i := 0; i < k; i++ {
			if got := *q.Peek(); got != want {
				t.Fatalf("Peek = %d, want %d", got, want)
			}
			q.Pop()
			want++
		}
	}
	for _, step := range []struct{ push, pop int }{
		{1, 1}, {chunkLen, chunkLen}, {chunkLen + 1, 1}, {3 * chunkLen, chunkLen},
		{5, 3*chunkLen + 5}, {2*chunkLen - 1, 2*chunkLen - 1},
	} {
		for i := 0; i < step.push; i++ {
			q.Push(next)
			next++
		}
		pop(step.pop)
		if q.Len() != next-want {
			t.Fatalf("Len = %d, want %d", q.Len(), next-want)
		}
	}
	if q.Len() > 0 {
		t.Fatalf("queue holds %d elements, want none", q.Len())
	}
}

// TestChunkFIFOMemoryFollowsOccupancy checks that a drained queue keeps at
// most one chunk besides its spare, and that a queue cycling below one
// chunk's worth of elements allocates nothing.
func TestChunkFIFOMemoryFollowsOccupancy(t *testing.T) {
	var q ChunkFIFO[[8]uint64]
	for i := 0; i < 40*chunkLen; i++ {
		q.Push([8]uint64{uint64(i)})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if len(q.c) != 1 || q.spare == nil {
		t.Fatalf("drained queue holds %d chunks (spare %v), want 1 plus the spare", len(q.c), q.spare != nil)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 3*chunkLen; i++ {
			q.Push([8]uint64{})
			if q.Len() > chunkLen/2 {
				q.Pop()
			}
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady push/pop allocates %.1f times per run, want 0", allocs)
	}
}

func TestChunkFIFOEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(q *ChunkFIFO[int]){
		"Peek": func(q *ChunkFIFO[int]) { q.Peek() },
		"Pop":  func(q *ChunkFIFO[int]) { q.Pop() },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on an empty queue did not panic", name)
				}
			}()
			var q ChunkFIFO[int]
			q.Push(1)
			q.Pop()
			f(&q)
		})
	}
}
