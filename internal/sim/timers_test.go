package sim

import (
	"slices"
	"strconv"
	"testing"
)

// TestTimersNext pins the NextWork hint: Never when empty, the earliest
// pending cycle while none is due, and now itself once one is due.
func TestTimersNext(t *testing.T) {
	var tm Timers[int]
	if n := tm.Next(5); n != Never {
		t.Fatalf("empty Next = %d, want Never", n)
	}
	tm.Add(30, 0)
	tm.Add(12, 1)
	tm.Add(20, 2)
	if n := tm.Next(5); n != 12 {
		t.Fatalf("Next(5) = %d, want the minimum 12", n)
	}
	for _, now := range []uint64{12, 25} {
		if n := tm.Next(now); n != now {
			t.Fatalf("Next(%d) = %d, want now", now, n)
		}
	}
	tm.Fire(40, func(int, uint64) {})
	if n := tm.Next(40); tm.Len() != 0 || n != Never {
		t.Fatalf("after firing all: Len %d Next %d, want 0 and Never", tm.Len(), n)
	}
}

// TestTimersFireOrder: due events fire in insertion order, whatever their
// cycles, and the rest stay pending in insertion order.
func TestTimersFireOrder(t *testing.T) {
	var tm Timers[string]
	for i, at := range []uint64{9, 3, 7, 12, 3} {
		tm.Add(at, string(rune('a'+i)))
	}
	var fired []string
	tm.Fire(8, func(v string, cycle uint64) {
		if cycle != 8 {
			t.Fatalf("fn got cycle %d, want 8", cycle)
		}
		fired = append(fired, v)
	})
	if want := []string{"b", "c", "e"}; !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if got := pending(&tm); !slices.Equal(got, []string{"a@9", "d@12"}) {
		t.Fatalf("pending %v, want [a@9 d@12]", got)
	}
}

// TestTimersFireReentrantAdd: an event added by fn, even one already due,
// waits for the next Fire and sits after the events kept so far, ahead of
// those not yet visited. The L2 bank depends on this order for two events
// due in the same cycle.
func TestTimersFireReentrantAdd(t *testing.T) {
	var tm Timers[string]
	tm.Add(5, "a")
	tm.Add(9, "b")
	tm.Add(5, "c")
	tm.Add(9, "d")
	var fired []string
	fn := func(v string, cycle uint64) {
		fired = append(fired, v)
		tm.Add(cycle, v+"'")
	}
	tm.Fire(5, fn)
	if want := []string{"a", "c"}; !slices.Equal(fired, want) {
		t.Fatalf("first Fire fired %v, want %v", fired, want)
	}
	if got, want := pending(&tm), []string{"a'@5", "b@9", "c'@5", "d@9"}; !slices.Equal(got, want) {
		t.Fatalf("pending %v, want %v", got, want)
	}
	fired = fired[:0]
	tm.Fire(5, func(v string, _ uint64) { fired = append(fired, v) })
	if want := []string{"a'", "c'"}; !slices.Equal(fired, want) {
		t.Fatalf("second Fire fired %v, want %v", fired, want)
	}
}

// pending lists tm's events as "v@at", in the order At reports them.
func pending(tm *Timers[string]) []string {
	var out []string
	for i := 0; i < tm.Len(); i++ {
		at, v := tm.At(i)
		out = append(out, v+"@"+strconv.FormatUint(at, 10))
	}
	return out
}
