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

// State streams a quiescent cube's section. The restoring cube has its
// ARE already attached when the scheme calls for one.
func (c *Cube) State(s *sim.Stream) {
	s.Tag("cube")
	s.Match(c.ID, "cube id")
	s.U64s(c.Stats.counters())
	n := len(c.vaults)
	if s.Int(&n); s.Err() == nil && n != len(c.vaults) {
		s.Fail("cube %d vault count mismatch: snapshot %d, machine %d", c.ID, n, len(c.vaults))
		return
	}
	for v := range c.vaults {
		c.vaults[v].State(s)
	}
	hasARE := c.are != nil
	if s.Bool(&hasARE); s.Err() == nil && hasARE != (c.are != nil) {
		s.Fail("cube %d ARE presence mismatch: snapshot %v, machine %v", c.ID, hasARE, c.are != nil)
		return
	}
	if c.are != nil {
		c.are.State(s)
	}
}
