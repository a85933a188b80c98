package cpu

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// tickLog wraps a component and records the cycle of every Tick.
type tickLog struct {
	sim.Component
	at []uint64
}

func (t *tickLog) Tick(cycle uint64) {
	t.at = append(t.at, cycle)
	t.Component.Tick(cycle)
}

// slowHome answers every L1 miss with an exclusive fill lat cycles after
// the request was sent, recording the send cycles.
type slowHome struct {
	e     *sim.Engine
	l1    *cache.L1
	lat   uint64
	due   []cache.Msg // fills in send order; Tag holds the delivery cycle
	sent  []uint64
	waker *sim.Waker
}

func (h *slowHome) SetWaker(w *sim.Waker) { h.waker = w }

func (h *slowHome) send(dst int, m cache.Msg) bool {
	now := h.e.Cycle()
	h.sent = append(h.sent, now)
	h.due = append(h.due, cache.Msg{Type: cache.MsgData, Block: m.Block, Excl: true, Tag: now + h.lat})
	h.waker.Wake()
	return true
}

func (h *slowHome) NextWork(now uint64) uint64 {
	if len(h.due) == 0 {
		return sim.Never
	}
	return max(h.due[0].Tag, now)
}

func (h *slowHome) Tick(cycle uint64) {
	for len(h.due) > 0 && h.due[0].Tag <= cycle && h.l1.Deliver(h.due[0], cycle) {
		h.due = h.due[1:]
	}
}

// mshrRun drives one core through twelve loads to distinct blocks into an
// L1 with two MSHRs over a 40-cycle memory, so most loads are refused for
// want of an MSHR. It returns the core's stats, its Tick cycles, the
// cycles each miss was sent, the cycles fills freed an MSHR, and the end
// cycle.
func mshrRun(t *testing.T, lockstep bool) (Stats, []uint64, []uint64, []uint64, uint64) {
	st, as := env()
	base := as.Alloc(12*mem.BlockSize, mem.BlockSize)
	insts := make([]isa.Inst, 12)
	for i := range insts {
		insts[i] = isa.Inst{Kind: isa.KindLoad, Addr: base + mem.VAddr(i*mem.BlockSize)}
	}
	e := sim.NewEngine()
	e.Lockstep = lockstep
	home := &slowHome{e: e, lat: 40}
	var c *Core
	var fills []uint64
	l1cfg := cache.DefaultL1Config()
	l1cfg.MSHRs = 2
	l1 := cache.NewL1(0, l1cfg, home.send, func(mem.PAddr) int { return 1 },
		func(tok uint64) { c.MemDone(tok) },
		func() { fills = append(fills, e.Cycle()); c.PortReady() })
	home.l1 = l1
	c = NewCore(0, DefaultConfig(), replay(insts), l1, nil, st, as, nil)
	log := &tickLog{Component: c}
	e.Register("core", 0, log)
	e.Register("l1.", 0, l1)
	e.Register("home", -1, home)
	if _, err := e.RunUntil(func() bool { return c.Finished() && !l1.Busy() }, 100000); err != nil {
		t.Fatal(err)
	}
	return c.Stats, log.at, home.sent, fills, e.Cycle()
}

// TestCoreParksOnFullMSHRs checks the backpressure wake between a core
// and its L1: a core refused for want of an MSHR runs no Tick until a fill
// frees one, retries on the next cycle, exactly when the lockstep kernel's
// retry first succeeds, and ends with the lockstep run's MemStalls.
func TestCoreParksOnFullMSHRs(t *testing.T) {
	got, ticks, sent, fills, end := mshrRun(t, false)
	want, _, wantSent, _, wantEnd := mshrRun(t, true)
	if got.MemStalls == 0 {
		t.Fatal("no refusal: the test no longer fills the MSHRs")
	}
	if got != want {
		t.Fatalf("stats = %+v, lockstep %+v", got, want)
	}
	if !reflect.DeepEqual(sent, wantSent) || end != wantEnd {
		t.Fatalf("misses sent at %v, end %d; lockstep %v, end %d", sent, end, wantSent, wantEnd)
	}
	// The third load is refused at cycle 1 (two misses fill the MSHRs at
	// cycle 0); the first fill frees an MSHR at fills[0].
	for _, at := range ticks {
		if at > 1 && at <= fills[0] {
			t.Fatalf("core ticked at cycle %d while waiting for the fill at %d (ticks %v)", at, fills[0], ticks)
		}
	}
	if sent[2] != fills[0]+1 {
		t.Fatalf("refused load sent at %d, want the cycle after the fill (%d)", sent[2], fills[0]+1)
	}
	if len(ticks) >= int(end)/2 {
		t.Fatalf("core ticked %d times in %d cycles: it did not park", len(ticks), end)
	}
}
