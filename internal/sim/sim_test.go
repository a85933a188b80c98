package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestEngineStepOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register("a", -1, busy{func(uint64) { order = append(order, "a") }})
	e.Register("b", -1, busy{func(uint64) { order = append(order, "b") }})
	e.step()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("tick order = %v, want [a b]", order)
	}
	if e.Cycle() != 1 {
		t.Fatalf("cycle = %d, want 1", e.Cycle())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Register("c", -1, busy{func(uint64) { count++ }})
	n, err := e.RunUntil(func() bool { return count >= 10 }, 100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || count != 10 {
		t.Fatalf("ran %d cycles, count %d, want 10", n, count)
	}
}

func TestEngineRunUntilTimeout(t *testing.T) {
	e := NewEngine()
	if _, err := e.RunUntil(func() bool { return false }, 5); err == nil {
		t.Fatal("expected timeout error")
	}
	if e.Cycle() != 5 {
		t.Fatalf("cycle = %d, want 5", e.Cycle())
	}
}

// TestEngineTimeoutErrorStructure checks the timeout error is typed and
// lists non-quiescent components with their NextWork hints.
func TestEngineTimeoutErrorStructure(t *testing.T) {
	e := NewEngine()
	e.Register("spinner", -1, busy{})
	e.Register("timer", -1, &pinger{interval: 1000, until: 1 << 50})
	_, err := e.RunUntil(func() bool { return false }, 7)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *TimeoutError", err, err)
	}
	if te.MaxCycles != 7 || te.Cycle != 7 {
		t.Fatalf("MaxCycles/Cycle = %d/%d, want 7/7", te.MaxCycles, te.Cycle)
	}
	if len(te.Pending) != 2 || te.Pending[0].Name != "spinner" || te.Pending[1].Name != "timer" {
		t.Fatalf("pending = %+v, want [spinner timer] sorted by name", te.Pending)
	}
	if te.Pending[1].NextWork != 1000 {
		t.Fatalf("timer hint = %d, want 1000", te.Pending[1].NextWork)
	}
	for _, want := range []string{"no completion after 7 cycles", "spinner(now)", "timer(@1000)"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

// TestEngineRunUntilCtxCancel checks a cancelled context abandons the run
// within the amortized poll stride and the error wraps context.Canceled.
func TestEngineRunUntilCtxCancel(t *testing.T) {
	e := NewEngine()
	e.Register("busy", -1, busy{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cycles, err := e.RunUntilCtx(ctx, func() bool { return false }, Never)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cycles > 2*cancelStride {
		t.Fatalf("ran %d cycles after cancellation, want <= one poll stride", cycles)
	}
}

func TestEngineRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Register("bad", -1, nil)
}

// pinger is a wake-aware test component: every interval cycles (before
// until) it increments its counter and, optionally, sends a unit of work
// through out. Deliveries land in its inbox and are received when their
// cycle arrives; recvAt records the cycle of every receive.
type pinger struct {
	interval uint64
	until    uint64
	count    uint64
	inbox    []uint64 // delivery cycles, drained on tick
	recvAt   []uint64
	waker    *Waker
	out      func(cycle uint64) // nil: no sends
}

func (p *pinger) SetWaker(w *Waker) { p.waker = w }

func (p *pinger) deliver(at uint64) {
	p.inbox = append(p.inbox, at)
	p.waker.Wake()
}

func (p *pinger) NextWork(now uint64) uint64 {
	next := Never
	if now < p.until {
		if r := now % p.interval; r == 0 {
			return now
		} else if now+p.interval-r < next {
			next = now + p.interval - r
		}
	}
	for _, at := range p.inbox {
		if at <= now {
			return now
		}
		if at < next {
			next = at
		}
	}
	return next
}

func (p *pinger) Tick(cycle uint64) {
	if cycle < p.until && cycle%p.interval == 0 {
		p.count++
		if p.out != nil {
			p.out(cycle)
		}
	}
	kept := p.inbox[:0]
	for _, at := range p.inbox {
		if at <= cycle {
			p.recvAt = append(p.recvAt, cycle)
		} else {
			kept = append(kept, at)
		}
	}
	p.inbox = kept
}

// busy is a test component with work every cycle; each Tick calls f when
// it is set.
type busy struct{ f func(cycle uint64) }

func (b busy) Tick(cycle uint64) {
	if b.f != nil {
		b.f(cycle)
	}
}

func (busy) NextWork(now uint64) uint64 { return now }

func (busy) SetWaker(*Waker) {}

// mailStage buffers sends and hands them to their destination pinger when
// it ticks: a wake-aware component with work while mail is queued.
type mailStage struct {
	mail  []uint64 // delivery cycles
	dest  *pinger
	waker *Waker
}

func (ms *mailStage) SetWaker(w *Waker) { ms.waker = w }

func (ms *mailStage) post(at uint64) {
	ms.mail = append(ms.mail, at)
	ms.waker.Wake()
}

func (ms *mailStage) Tick(uint64) {
	for _, at := range ms.mail {
		ms.dest.deliver(at)
	}
	ms.mail = ms.mail[:0]
}

func (ms *mailStage) NextWork(now uint64) uint64 {
	if len(ms.mail) > 0 {
		return now
	}
	return Never
}

// latch is a wake-aware test component with work only while raised; each
// Tick records its cycle and lowers the latch.
type latch struct {
	raised bool
	at     []uint64
	waker  *Waker
}

func (l *latch) SetWaker(w *Waker) { l.waker = w }

func (l *latch) raise() {
	l.raised = true
	l.waker.Wake()
}

func (l *latch) NextWork(now uint64) uint64 {
	if l.raised {
		return now
	}
	return Never
}

func (l *latch) Tick(cycle uint64) {
	l.at = append(l.at, cycle)
	l.raised = false
}

// TestEngineSameCycleWakeOrder pins the wake rule of the tick order: a
// parked component woken by a component at an earlier slot ticks in that
// same cycle, and one woken by a later slot ticks in the next cycle.
func TestEngineSameCycleWakeOrder(t *testing.T) {
	l := &latch{}
	e := NewEngine()
	e.Register("early", -1, busy{func(cycle uint64) {
		if cycle == 10 {
			l.raise()
		}
	}})
	e.Register("latch", -1, l)
	e.Register("late", -1, busy{func(cycle uint64) {
		if cycle == 20 {
			l.raise()
		}
	}})
	for i := 0; i < 30; i++ {
		e.step()
	}
	if len(l.at) != 2 || l.at[0] != 10 || l.at[1] != 21 {
		t.Fatalf("latch ticked at %v, want [10 21]", l.at)
	}
	// The latch is polled once after each of its three quiet starts (cycles
	// 0, 11 and 22) and parked in between; more skips mean it was polled
	// while parked and the test no longer exercises the wake path.
	if e.SkippedTicks != 3 {
		t.Fatalf("SkippedTicks = %d, want 3 (latch parked between wakes)", e.SkippedTicks)
	}
}

// TestEngineWakeAtDelivery checks that a parked wake-aware component woken
// by a delivery ticks exactly at the delivery cycle, even when the engine
// jumps the clock over the idle stretch before it.
func TestEngineWakeAtDelivery(t *testing.T) {
	const latency = 50
	recv := &pinger{interval: 1, until: 0} // no work of its own
	ms := &mailStage{dest: recv}
	send := &pinger{interval: 1000, until: 1001, out: func(cycle uint64) {
		ms.post(cycle + latency)
	}}
	e := NewEngine()
	e.Register("recv", -1, recv)
	e.Register("send", -1, send)
	e.Register("mail", -1, ms)
	if _, err := e.RunUntil(func() bool { return len(recv.recvAt) == 2 }, 100000); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{latency, 1000 + latency}; len(recv.recvAt) != 2 || recv.recvAt[0] != want[0] || recv.recvAt[1] != want[1] {
		t.Fatalf("received at %v, want %v", recv.recvAt, want)
	}
	if e.JumpedCycles == 0 {
		t.Fatal("JumpedCycles = 0, want the idle stretches skipped")
	}
}

// TestEngineJumpsIdleStretches checks that a machine with sparse timed work
// advances the clock in jumps rather than cycle-by-cycle.
func TestEngineJumpsIdleStretches(t *testing.T) {
	e := NewEngine()
	p := &pinger{interval: 1000, until: 5000}
	e.Register("p", -1, p)
	cycles, err := e.RunUntil(func() bool { return p.count == 5 }, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if cycles == 0 || p.count != 5 {
		t.Fatalf("cycles=%d count=%d", cycles, p.count)
	}
	if e.JumpedCycles < 3000 {
		t.Fatalf("JumpedCycles = %d, want most of the idle stretch skipped", e.JumpedCycles)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(123), NewRand(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at %d", i)
		}
	}
}

func TestRandZeroSeedOK(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRandDistributionRough(t *testing.T) {
	r := NewRand(13)
	buckets := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		buckets[r.Intn(8)]++
	}
	for i, b := range buckets {
		if b < n/8-n/40 || b > n/8+n/40 {
			t.Fatalf("bucket %d heavily skewed: %d of %d", i, b, n)
		}
	}
}
