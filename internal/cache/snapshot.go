package cache

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// Checkpoint support. Both cache levels snapshot only at system quiescence
// (Busy() false): no MSHRs, transactions, queued messages, queued or
// outstanding memory ops or timed events — so the surviving state is the
// line/directory arrays, the LRU clocks and the counters. MSHR and
// transaction free lists are rebuilt structurally fresh on restore (which
// recycled entry serves a miss never affects simulated behavior; see
// DESIGN.md "Checkpointing").

func encCacheStats(e *sim.Enc, s *Stats) {
	for _, p := range s.counters() {
		e.U64(*p)
	}
}

func decCacheStats(d *sim.Dec, s *Stats) {
	for _, p := range s.counters() {
		*p = d.U64()
	}
}

// Snapshot implements sim.Snapshotter for a quiescent L1.
func (l *L1) Snapshot(e *sim.Enc) {
	e.Tag("l1")
	e.Int(l.ID)
	e.U64(l.lruTick)
	e.Int(l.sets)
	e.Int(l.cfg.Ways)
	for _, set := range l.lines {
		for i := range set {
			e.U64(uint64(set[i].tag))
			e.U32(uint32(set[i].state))
			e.U64(set[i].lru)
		}
	}
	encCacheStats(e, &l.Stats)
}

// Restore implements sim.Snapshotter for a freshly constructed L1.
func (l *L1) Restore(d *sim.Dec) {
	d.Tag("l1")
	if id := d.Int(); d.Err() == nil && id != l.ID {
		d.Fail("l1 id mismatch: snapshot %d, machine %d", id, l.ID)
	}
	l.lruTick = d.U64()
	sets, ways := d.Int(), d.Int()
	if d.Err() != nil {
		return
	}
	if sets != l.sets || ways != l.cfg.Ways {
		d.Fail("l1 geometry mismatch: snapshot %dx%d, machine %dx%d", sets, ways, l.sets, l.cfg.Ways)
		return
	}
	for _, set := range l.lines {
		for i := range set {
			set[i].tag = mem.PAddr(d.U64())
			set[i].state = lineState(d.U32())
			set[i].lru = d.U64()
		}
	}
	decCacheStats(d, &l.Stats)
}

// Snapshot implements sim.Snapshotter for a quiescent L2 bank.
func (b *L2Bank) Snapshot(e *sim.Enc) {
	e.Tag("l2")
	e.Int(b.ID)
	e.U64(b.lruTk)
	e.Int(b.sets)
	e.Int(b.cfg.Ways)
	for _, set := range b.lines {
		for i := range set {
			ln := &set[i]
			e.U64(uint64(ln.tag))
			e.Bool(ln.valid)
			e.Bool(ln.dirty)
			e.U64(ln.sharers)
			e.Int(ln.owner)
			e.U64(ln.lru)
		}
	}
	encCacheStats(e, &b.Stats)
}

// Restore implements sim.Snapshotter for a freshly constructed L2 bank.
func (b *L2Bank) Restore(d *sim.Dec) {
	d.Tag("l2")
	if id := d.Int(); d.Err() == nil && id != b.ID {
		d.Fail("l2 id mismatch: snapshot %d, machine %d", id, b.ID)
	}
	b.lruTk = d.U64()
	sets, ways := d.Int(), d.Int()
	if d.Err() != nil {
		return
	}
	if sets != b.sets || ways != b.cfg.Ways {
		d.Fail("l2 geometry mismatch: snapshot %dx%d, machine %dx%d", sets, ways, b.sets, b.cfg.Ways)
		return
	}
	for _, set := range b.lines {
		for i := range set {
			ln := &set[i]
			ln.tag = mem.PAddr(d.U64())
			ln.valid = d.Bool()
			ln.dirty = d.Bool()
			ln.sharers = d.U64()
			ln.owner = d.Int()
			ln.lru = d.U64()
		}
	}
	decCacheStats(d, &b.Stats)
}
