package dram

import (
	"repro/internal/sim"
)

// State streams a drained bank set (no queued or in-flight requests): the
// surviving state is per-bank row-buffer status and absolute timing
// (freeAt/activatedAt stay valid verbatim because restore resumes the clock
// at the snapshot cycle — nothing is rebased), the shared bus horizon and
// the counters. A restored set keeps earliestDone at Never and
// banksBlockedUntil at zero, both exact for an empty queue and re-derived
// as traffic arrives.
func (b *BankSet) State(s *sim.Stream) {
	s.Tag("dram")
	if !s.Match(len(b.banks), "dram bank count") {
		return
	}
	for i := range b.banks {
		bk := &b.banks[i]
		s.Bool(&bk.hasOpenRow)
		s.U64(&bk.openRow)
		s.U64(&bk.freeAt)
		s.U64(&bk.activatedAt)
	}
	s.U64(&b.busFreeAt)
	s.U64s(b.Stats.counters())
}
