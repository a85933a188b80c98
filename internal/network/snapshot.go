package network

import (
	"repro/internal/sim"
)

// Checkpoint support. A fabric snapshots only when fully drained
// (Drained), so every ring is empty (a packet on a wire already sits in
// its next router's input ring), the head cache and the wait masks are
// clear, and the surviving state is per-router arbitration/link-timing
// state plus the accounting counters.
//
// Credits are encoded at their effective value: a drained fabric has
// returned every downstream slot, but returns sit in pendingCredits until
// the fabric's next network cycle — the encoder folds those in without
// mutating live state, and restore starts with the deferral queue empty,
// which is behaviorally identical (deferred credits would apply before any
// phase of the next tick anyway).

// State streams a drained fabric's section into a freshly constructed
// (traffic-free) fabric.
func (f *Fabric) State(s *sim.Stream) {
	s.Tag("fabric")
	if !s.Match(len(f.routers), "fabric router count") || !s.Match(f.Cfg.VCs, "fabric VC count") {
		return
	}
	for node, r := range f.routers {
		p := r.ports
		if s.Int(&p); s.Err() == nil && p != r.ports {
			s.Fail("fabric node %d port count mismatch: snapshot %d, machine %d", r.node, p, r.ports)
			return
		}
		if s.Int(&r.rrPort); r.rrPort < 0 || r.rrPort >= r.ports*f.Cfg.VCs+f.Cfg.VCs {
			s.Fail("fabric node %d rrPort %d out of range", r.node, r.rrPort)
			return
		}
		for p := range r.linkBusy {
			s.U64(&r.linkBusy[p])
		}
		for i := range r.credits {
			cr := r.credits[i]
			for _, c := range f.pendingCredits {
				if int(c.node) == node && int(c.idx) == i {
					cr++ // a deferred return; a fresh fabric has none
				}
			}
			if s.Int(&cr); cr < 0 || cr > f.Cfg.QueueDepth {
				s.Fail("fabric node %d credit %d out of range [0,%d]", r.node, cr, f.Cfg.QueueDepth)
				return
			} else if s.Decoding() {
				r.credits[i] = cr
			}
		}
	}
	s.U64(&f.HopBytes)
	s.U64(&f.Delivered)
	s.U64(&f.Movement.NormReq)
	s.U64(&f.Movement.NormResp)
	s.U64(&f.Movement.ActiveReq)
	s.U64(&f.Movement.ActiveResp)
}
