package sim

import (
	"reflect"
	"testing"
)

// relay is a randomly timed test component honoring the idle/wake
// contract. It keeps the cycles of its pending events; Tick processes the
// due ones, and each processed event may schedule a later event of its own
// and may send one to another relay, waking it. Its choices come from a
// per-relay generator advanced only when an event is processed, so a run
// makes the same choices under any scheduler that ticks it on the same
// cycles. It also counts the cycles it waits (events pending, none due),
// the way a stalled component counts its stall cycles: Tick bumps waited,
// and NextWork credits the cycles it skips through a Stall.
type relay struct {
	id      int
	due     []uint64
	fired   []uint64 // cycles at which events were processed
	waited  uint64
	stall   Stall
	rnd     Rand
	peers   []*relay
	horizon uint64 // no new events are scheduled at or after this cycle
	maxWait uint64
	waker   *Waker
}

func (r *relay) SetWaker(w *Waker) { r.waker = w }

func (r *relay) deliver(at uint64) {
	r.due = append(r.due, at)
	r.waker.Wake()
}

func (r *relay) NextWork(now uint64) uint64 {
	r.stall.Poll(now)
	next := Never
	for _, at := range r.due {
		if at <= now {
			return now
		}
		next = min(next, at)
	}
	if next != Never {
		r.stall.Wait(&r.waited)
	}
	return next
}

func (r *relay) Tick(cycle uint64) {
	kept := r.due[:0]
	var fired int
	for _, at := range r.due {
		if at <= cycle {
			fired++
		} else {
			kept = append(kept, at)
		}
	}
	r.due = kept
	if fired == 0 && len(kept) > 0 {
		r.waited++
	}
	for ; fired > 0; fired-- {
		r.fired = append(r.fired, cycle)
		if cycle >= r.horizon {
			continue
		}
		x := r.rnd.Uint64()
		if x&1 != 0 {
			r.due = append(r.due, cycle+1+(x>>8)%r.maxWait)
		}
		if x&2 != 0 {
			// Zero latency reaches a later slot in this same cycle and an
			// earlier slot in the next, as the wake-order rule says.
			peer := r.peers[(x>>4)%uint64(len(r.peers))]
			peer.deliver(cycle + (x>>16)%r.maxWait)
		}
	}
}

// runRelays builds n relays from seed, registers them on a fresh engine
// and runs until every relay is drained. It returns each relay's fired
// cycles and waited count, and the final clock.
func runRelays(seed uint64, n int, maxWait, horizon uint64, lockstep bool) ([][]uint64, []uint64, uint64, *Engine) {
	e := NewEngine()
	e.Lockstep = lockstep
	rs := make([]*relay, n)
	for i := range rs {
		rs[i] = &relay{id: i, horizon: horizon, maxWait: maxWait}
		rs[i].rnd.SetState(seed*0x9E3779B97F4A7C15 + uint64(i) + 1)
		rs[i].due = []uint64{uint64(i) % maxWait}
	}
	for i, r := range rs {
		r.peers = rs
		e.Register("relay", i, r)
	}
	drained := func() bool {
		for _, r := range rs {
			if len(r.due) > 0 {
				return false
			}
		}
		return true
	}
	if _, err := e.RunUntil(drained, 1<<40); err != nil {
		panic(err)
	}
	fired := make([][]uint64, n)
	waited := make([]uint64, n)
	for i, r := range rs {
		fired[i], waited[i] = r.fired, r.waited
	}
	return fired, waited, e.Cycle(), e
}

// FuzzEngineWakeups compares the idle-aware engine (wake heap, parking,
// idle jumps) with Lockstep on randomly timed relays that wake each other:
// every relay must process its events on the same cycles and count the
// same waiting cycles, and the run must end on the same cycle. Relay counts up to 130 span three active-mask
// words.
func FuzzEngineWakeups(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(5))
	f.Add(uint64(7), uint8(64), uint8(200))
	f.Add(uint64(42), uint8(130), uint8(1))
	f.Add(uint64(99), uint8(65), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, n, wait uint8) {
		comps := 1 + int(n)%130
		maxWait := 1 + uint64(wait)
		const horizon = 3000
		got, gotWaited, gotEnd, e := runRelays(seed, comps, maxWait, horizon, false)
		want, wantWaited, wantEnd, _ := runRelays(seed, comps, maxWait, horizon, true)
		if gotEnd != wantEnd {
			t.Fatalf("run ended at cycle %d, lockstep at %d", gotEnd, wantEnd)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("relay %d fired at %v, lockstep at %v", i, got[i], want[i])
				}
			}
		}
		for i := range gotWaited {
			if gotWaited[i] != wantWaited[i] {
				t.Fatalf("relay %d waited %d cycles, lockstep %d", i, gotWaited[i], wantWaited[i])
			}
		}
		if len(e.heap) > comps*int(maxWait+1) {
			t.Fatalf("wake heap holds %d entries for %d relays", len(e.heap), comps)
		}
	})
}
