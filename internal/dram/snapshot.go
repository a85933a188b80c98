package dram

import (
	"repro/internal/sim"
)

// Snapshot implements sim.Snapshotter for a drained bank set (no queued or
// in-flight requests): the surviving state is per-bank row-buffer status
// and absolute timing (freeAt/activatedAt stay valid verbatim because
// restore resumes the clock at the snapshot cycle — nothing is rebased),
// the shared bus horizon and the counters.
func (b *BankSet) Snapshot(e *sim.Enc) {
	e.Tag("dram")
	e.Int(len(b.banks))
	for i := range b.banks {
		bk := &b.banks[i]
		e.Bool(bk.hasOpenRow)
		e.U64(bk.openRow)
		e.U64(bk.freeAt)
		e.U64(bk.activatedAt)
	}
	e.U64(b.busFreeAt)
	for _, p := range b.Stats.counters() {
		e.U64(*p)
	}
}

// Restore implements sim.Snapshotter for a freshly constructed bank set.
// earliestDone stays Never and banksBlockedUntil zero — both are exact for
// an empty queue and re-derived as traffic arrives.
func (b *BankSet) Restore(d *sim.Dec) {
	d.Tag("dram")
	if n := d.Int(); d.Err() == nil && n != len(b.banks) {
		d.Fail("dram bank count mismatch: snapshot %d, machine %d", n, len(b.banks))
		return
	}
	for i := range b.banks {
		bk := &b.banks[i]
		bk.hasOpenRow = d.Bool()
		bk.openRow = d.U64()
		bk.freeAt = d.U64()
		bk.activatedAt = d.U64()
	}
	b.busFreeAt = d.U64()
	for _, p := range b.Stats.counters() {
		*p = d.U64()
	}
	b.earliestDone = sim.Never
	b.banksBlockedUntil = 0
}
