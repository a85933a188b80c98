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

// Snapshot implements sim.Snapshotter for a drained fabric.
func (f *Fabric) Snapshot(e *sim.Enc) {
	e.Tag("fabric")
	e.Int(len(f.routers))
	e.Int(f.Cfg.VCs)

	// Effective credits: live credits plus deferred returns, computed in
	// scratch so the live machine is untouched.
	eff := make([][]int, len(f.routers))
	for i, r := range f.routers {
		eff[i] = append([]int(nil), r.credits...)
	}
	for _, c := range f.pendingCredits {
		eff[c.node][c.idx]++
	}
	for i, r := range f.routers {
		e.Int(r.ports)
		e.Int(r.rrPort)
		for _, lb := range r.linkBusy {
			e.U64(lb)
		}
		for _, cr := range eff[i] {
			e.Int(cr)
		}
	}

	e.U64(f.HopBytes)
	e.U64(f.Delivered)
	e.U64(0) // retired packet-id counter; the slot keeps the wire format
	e.U64(f.Movement.NormReq)
	e.U64(f.Movement.NormResp)
	e.U64(f.Movement.ActiveReq)
	e.U64(f.Movement.ActiveResp)
}

// Restore implements sim.Snapshotter for a freshly constructed (traffic-
// free) fabric.
func (f *Fabric) Restore(d *sim.Dec) {
	d.Tag("fabric")
	if n := d.Int(); d.Err() == nil && n != len(f.routers) {
		d.Fail("fabric router count mismatch: snapshot %d, machine %d", n, len(f.routers))
		return
	}
	if v := d.Int(); d.Err() == nil && v != f.Cfg.VCs {
		d.Fail("fabric VC count mismatch: snapshot %d, machine %d", v, f.Cfg.VCs)
		return
	}
	for _, r := range f.routers {
		if p := d.Int(); d.Err() == nil && p != r.ports {
			d.Fail("fabric node %d port count mismatch: snapshot %d, machine %d", r.node, p, r.ports)
			return
		}
		r.rrPort = d.Int()
		if nin := r.ports*f.Cfg.VCs + f.Cfg.VCs; r.rrPort < 0 || r.rrPort >= nin {
			d.Fail("fabric node %d rrPort %d out of range", r.node, r.rrPort)
			return
		}
		for p := range r.linkBusy {
			r.linkBusy[p] = d.U64()
		}
		for i := range r.credits {
			cr := d.Int()
			if cr < 0 || cr > f.Cfg.QueueDepth {
				d.Fail("fabric node %d credit %d out of range [0,%d]", r.node, cr, f.Cfg.QueueDepth)
				return
			}
			r.credits[i] = cr
		}
	}
	f.HopBytes = d.U64()
	f.Delivered = d.U64()
	if id := d.U64(); d.Err() == nil && id != 0 {
		d.Fail("fabric packet-id word %d, want 0", id)
		return
	}
	f.Movement.NormReq = d.U64()
	f.Movement.NormResp = d.U64()
	f.Movement.ActiveReq = d.U64()
	f.Movement.ActiveResp = d.U64()
}
