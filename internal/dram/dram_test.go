package dram

import (
	"testing"

	"repro/internal/mem"
)

// set is a bank set under test whose Done hook appends each completion
// cycle to the list its request was enqueued with (the token indexes sinks).
type set struct {
	*BankSet
	sinks []*[]uint64
}

func newSet(n int, timing Timing, maxQueue int) *set {
	s := &set{}
	s.BankSet = NewBankSet(n, timing, maxQueue, func(token, cycle uint64) {
		*s.sinks[token] = append(*s.sinks[token], cycle)
	})
	return s
}

func enq(t *testing.T, b *set, bank int, row uint64, done *[]uint64) {
	t.Helper()
	b.sinks = append(b.sinks, done)
	ok := b.Enqueue(Request{Bank: bank, Row: row, Token: uint64(len(b.sinks) - 1)})
	if !ok {
		t.Fatal("enqueue rejected")
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	tm := DefaultDDRTiming()
	var missDone, hitDone []uint64

	b1 := newSet(2, tm, 8)
	enq(t, b1, 0, 5, &missDone)
	for cyc := uint64(0); len(missDone) == 0; cyc++ {
		b1.Tick(cyc)
	}
	missLat := missDone[0]

	// Warm the row, then measure a hit.
	b2 := newSet(2, tm, 8)
	var warm []uint64
	enq(t, b2, 0, 5, &warm)
	cyc := uint64(0)
	for ; len(warm) == 0; cyc++ {
		b2.Tick(cyc)
	}
	start := cyc
	enq(t, b2, 0, 5, &hitDone)
	for ; len(hitDone) == 0; cyc++ {
		b2.Tick(cyc)
	}
	hitLat := hitDone[0] - start
	if hitLat >= missLat {
		t.Fatalf("row hit latency %d not faster than miss %d", hitLat, missLat)
	}
	if b2.Stats.RowHits != 1 || b2.Stats.RowMisses != 1 {
		t.Fatalf("stats = %+v", b2.Stats)
	}
}

func TestRowConflictSlowest(t *testing.T) {
	tm := DefaultDDRTiming()
	b := newSet(1, tm, 8)
	var d1, d2 []uint64
	enq(t, b, 0, 1, &d1)
	cyc := uint64(0)
	for ; len(d1) == 0; cyc++ {
		b.Tick(cyc)
	}
	start := cyc
	enq(t, b, 0, 2, &d2) // different row: conflict
	for ; len(d2) == 0; cyc++ {
		b.Tick(cyc)
	}
	conflictLat := d2[0] - start
	missLat := d1[0]
	if conflictLat <= missLat {
		t.Fatalf("conflict latency %d should exceed cold miss %d", conflictLat, missLat)
	}
	if b.Stats.RowConflicts != 1 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestBankParallelismBeatsSerial(t *testing.T) {
	tm := DefaultDDRTiming()
	// Four requests on four banks vs four on one bank (distinct rows).
	par := newSet(4, tm, 16)
	ser := newSet(4, tm, 16)
	var dp, ds []uint64
	for i := 0; i < 4; i++ {
		enq(t, par, i, 1, &dp)
		enq(t, ser, 0, uint64(i+1), &ds)
	}
	var cp, cs uint64
	for cyc := uint64(0); len(dp) < 4; cyc++ {
		par.Tick(cyc)
		cp = cyc
	}
	for cyc := uint64(0); len(ds) < 4; cyc++ {
		ser.Tick(cyc)
		cs = cyc
	}
	if cp >= cs {
		t.Fatalf("banked finish %d not faster than serial %d", cp, cs)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	tm := DefaultDDRTiming()
	b := newSet(1, tm, 8)
	var warm []uint64
	enq(t, b, 0, 7, &warm)
	cyc := uint64(0)
	for ; len(warm) == 0; cyc++ {
		b.Tick(cyc)
	}
	// Queue a conflict (older) and then a row hit (younger); the token is
	// the row.
	order := []uint64{}
	b.Done = func(token, _ uint64) { order = append(order, token) }
	b.Enqueue(Request{Bank: 0, Row: 9, Token: 9})
	b.Enqueue(Request{Bank: 0, Row: 7, Token: 7})
	for ; len(order) < 2; cyc++ {
		b.Tick(cyc)
	}
	if order[0] != 7 {
		t.Fatalf("FR-FCFS served row %d first, want the open-row hit 7", order[0])
	}
}

func TestQueueBackpressure(t *testing.T) {
	b := NewBankSet(1, DefaultDDRTiming(), 2, nil)
	r := func() Request { return Request{Bank: 0, Row: 1} }
	if !b.Enqueue(r()) || !b.Enqueue(r()) {
		t.Fatal("first two enqueues must succeed")
	}
	if b.Enqueue(r()) {
		t.Fatal("third enqueue must be rejected")
	}
	if b.Stats.QueueFullRej != 1 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestControllerAddressMapping(t *testing.T) {
	fired := false
	c := NewController(mem.DefaultDRAMGeometry(), DefaultDDRTiming(), 8, func(uint64, uint64) { fired = true })
	ok := c.Access(0x1234000, false, 0)
	if !ok {
		t.Fatal("access rejected")
	}
	for cyc := uint64(0); !fired && cyc < 10000; cyc++ {
		c.Tick(cyc)
	}
	if !fired {
		t.Fatal("access never completed")
	}
	if c.Banks.Stats.Reads != 1 {
		t.Fatalf("stats = %+v", c.Banks.Stats)
	}
}

func TestWritesCounted(t *testing.T) {
	var d []uint64
	b := NewBankSet(1, DefaultDDRTiming(), 8, func(_, c uint64) { d = append(d, c) })
	b.Enqueue(Request{Bank: 0, Row: 0, Write: true})
	for cyc := uint64(0); len(d) == 0; cyc++ {
		b.Tick(cyc)
	}
	if b.Stats.Writes != 1 || b.Stats.Reads != 0 {
		t.Fatalf("stats = %+v", b.Stats)
	}
}

func TestBadBankPanics(t *testing.T) {
	b := NewBankSet(2, DefaultDDRTiming(), 8, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.Enqueue(Request{Bank: 5, Row: 0})
}

func TestPendingCount(t *testing.T) {
	b := NewBankSet(1, DefaultDDRTiming(), 8, nil)
	b.Enqueue(Request{Bank: 0, Row: 0})
	if b.Pending() != 1 {
		t.Fatalf("pending = %d", b.Pending())
	}
}
