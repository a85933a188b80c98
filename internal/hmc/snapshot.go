package hmc

import (
	"repro/internal/sim"
)

// Checkpoint support. A cube snapshots only at system quiescence: staging
// queue, outbox and every vault empty (vaultWork zero implies vaultBusy
// zero and every pend token free), so the surviving state is the per-vault
// DRAM timing/counters, the cube counters and the attached ARE. The pend
// token table and its free list are rebuilt structurally fresh on restore
// — token identity never affects simulated behavior.

// SnapshotReady reports whether the cube (and its ARE, if any) is in a
// checkpointable state.
func (c *Cube) SnapshotReady() bool {
	if c.staged.Len() > 0 || c.outbox.Len() > 0 || c.vaultWork > 0 {
		return false
	}
	return c.are == nil || c.are.SnapshotReady()
}

// Snapshot implements sim.Snapshotter for a quiescent cube.
func (c *Cube) Snapshot(e *sim.Enc) {
	e.Tag("cube")
	e.Int(c.ID)
	for _, p := range c.Stats.counters() {
		e.U64(*p)
	}
	e.Int(len(c.vaults))
	for v := range c.vaults {
		c.vaults[v].Snapshot(e)
	}
	e.Bool(c.are != nil)
	if c.are != nil {
		c.are.Snapshot(e)
	}
}

// Restore implements sim.Snapshotter for a freshly constructed cube (with
// its ARE already attached when the scheme calls for one).
func (c *Cube) Restore(d *sim.Dec) {
	d.Tag("cube")
	if id := d.Int(); d.Err() == nil && id != c.ID {
		d.Fail("cube id mismatch: snapshot %d, machine %d", id, c.ID)
	}
	for _, p := range c.Stats.counters() {
		*p = d.U64()
	}
	if n := d.Int(); d.Err() == nil && n != len(c.vaults) {
		d.Fail("cube %d vault count mismatch: snapshot %d, machine %d", c.ID, n, len(c.vaults))
		return
	}
	for v := range c.vaults {
		c.vaults[v].Restore(d)
	}
	hasARE := d.Bool()
	if d.Err() != nil {
		return
	}
	if hasARE != (c.are != nil) {
		d.Fail("cube %d ARE presence mismatch: snapshot %v, machine %v", c.ID, hasARE, c.are != nil)
		return
	}
	if c.are != nil {
		c.are.Restore(d)
	}
}

// Snapshot implements sim.Snapshotter for a quiescent controller.
func (c *Controller) Snapshot(e *sim.Enc) {
	e.Tag("hmcctl")
	e.Int(c.Index)
	e.U64(c.nextTag)
}

// Restore implements sim.Snapshotter for a freshly constructed controller.
func (c *Controller) Restore(d *sim.Dec) {
	d.Tag("hmcctl")
	if idx := d.Int(); d.Err() == nil && idx != c.Index {
		d.Fail("hmc controller index mismatch: snapshot %d, machine %d", idx, c.Index)
	}
	c.nextTag = d.U64()
}
