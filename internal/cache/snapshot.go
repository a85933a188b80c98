package cache

import (
	"repro/internal/sim"
)

// Checkpoint support. Both cache levels snapshot only at system quiescence
// (Busy() false): no MSHRs, transactions, queued messages, queued or
// outstanding memory ops or timed events — so the surviving state is the
// line/directory arrays, the LRU clocks and the counters. MSHR and
// transaction free lists are rebuilt structurally fresh on restore (which
// recycled entry serves a miss never affects simulated behavior; see
// DESIGN.md "Checkpointing").

// shapeState streams a cache's LRU clock and shape; the restoring cache
// must share the shape. It reports whether the stream is still good.
func shapeState(s *sim.Stream, level string, lru *uint64, sets, ways int) bool {
	s.U64(lru)
	gs, gw := sets, ways
	s.Int(&gs)
	if s.Int(&gw); gs != sets || gw != ways {
		s.Fail("%s geometry mismatch: snapshot %dx%d, machine %dx%d", level, gs, gw, sets, ways)
	}
	return s.Err() == nil
}

// State streams a quiescent L1's section (DESIGN.md "Checkpointing").
func (l *L1) State(s *sim.Stream) {
	s.Tag("l1")
	if s.Match(l.ID, "l1 id"); !shapeState(s, "l1", &l.lruTick, l.sets, l.cfg.Ways) {
		return
	}
	for _, set := range l.lines {
		for i := range set {
			ln := &set[i]
			sim.U64As(s, &ln.tag)
			sim.U32As(s, &ln.state)
			s.U64(&ln.lru)
			if ln.state > stMod {
				s.Fail("l1 %d line state %d out of range", l.ID, ln.state)
			}
		}
	}
	s.U64s(l.Stats.counters())
}

// State streams a quiescent L2 bank's section.
func (b *L2Bank) State(s *sim.Stream) {
	s.Tag("l2")
	if s.Match(b.ID, "l2 id"); !shapeState(s, "l2", &b.lruTk, b.sets, b.cfg.Ways) {
		return
	}
	for _, set := range b.lines {
		for i := range set {
			ln := &set[i]
			sim.U64As(s, &ln.tag)
			s.Bool(&ln.valid)
			s.Bool(&ln.dirty)
			s.U64(&ln.sharers)
			s.Int(&ln.owner)
			s.U64(&ln.lru)
			if ln.owner < -1 || ln.owner >= b.cores {
				s.Fail("l2 %d line owner %d out of range [-1,%d)", b.ID, ln.owner, b.cores)
			} else if ln.sharers>>uint(b.cores) != 0 {
				s.Fail("l2 %d line sharers %#x name a core at or above %d", b.ID, ln.sharers, b.cores)
			}
		}
	}
	s.U64s(b.Stats.counters())
}
