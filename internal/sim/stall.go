package sim

// Stall is the lazy stall clock of a component that waits on a fence, a
// full structure or a refusing port. Each cycle of such a wait, the
// lockstep kernel's Tick bumps one per-cycle stall counter and changes
// nothing else. The idle-aware engine neither ticks a waiting component
// nor polls a parked one, so NextWork keeps the counter instead: Poll,
// first thing in NextWork, credits every cycle since the previous poll to
// the wait then in progress and ends it; Wait, when NextWork decides to
// wait, names the counter and credits the polled cycle. A wait cannot end
// without a wake, which re-polls the component, so every cycle it was not
// polled belongs to the wait recorded at its last poll. This credit is the
// one side effect a NextWork may have (see Component). The zero value
// waits on nothing.
type Stall struct {
	last uint64  // the last cycle polled or credited
	ctr  *uint64 // the wait's counter, nil when not waiting
}

// Poll credits cycles last+1 … now−1 to the wait in progress, ends the
// wait and records now as polled.
func (s *Stall) Poll(now uint64) {
	s.Settle(now)
	s.last, s.ctr = now, nil
}

// Wait starts a wait on ctr at the polled cycle and credits that cycle.
func (s *Stall) Wait(ctr *uint64) {
	*ctr++
	s.ctr = ctr
}

// Settle credits cycles last+1 … now−1 to the wait in progress and leaves
// last = now−1 with the wait kept, so the counter holds every cycle before
// now, as a lockstep run stopped at cycle now would. A checkpoint settles
// each waiting component to its cycle, so the blob does not depend on when
// the scheduler last polled it.
func (s *Stall) Settle(now uint64) {
	if s.ctr != nil && now > s.last+1 {
		*s.ctr += now - 1 - s.last
	}
	s.last = now - 1
}
