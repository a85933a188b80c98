package network

import "testing"

// inFlightScan recounts in-flight packets by walking every queue; a packet
// on a wire already sits in its next router's input ring.
func inFlightScan(f *Fabric) int {
	n := 0
	for _, r := range f.routers {
		for i := range r.in {
			n += r.in[i].len()
		}
		for i := range r.inj {
			n += r.inj[i].len()
		}
	}
	return n
}

// checkOccupancy cross-checks the fabric's O(1) occupancy state against a
// full scan after the fabric has ticked cycle: the InFlight counter, the
// waiting heads with their nextAt, the head cache and the busy bit. The
// head cache must hold exactly the arrived heads (an injection head, or a
// link-input head whose ArriveCycle is not ahead of cycle): an ejectHead
// bit for each link-input head addressed to this node, and for every other
// head its route, its downstream VC and its bit in wantQ[route] and routed,
// in no other wantQ. Empty and waiting queues hold no bit anywhere. eject
// and forward act on the cache without re-reading the head, so this is the
// invariant that makes them correct. The busy bit must be set exactly when
// some head has arrived.
func checkOccupancy(t testing.TB, f *Fabric, cycle uint64) {
	t.Helper()
	if scan := inFlightScan(f); scan != f.InFlight() || f.Drained() != (scan == 0) {
		t.Fatalf("cycle %d: InFlight()=%d Drained()=%v, scan=%d", cycle, f.InFlight(), f.Drained(), scan)
	}
	for _, r := range f.routers {
		var wait, eject, routed uint64
		wantQ := make([]uint64, r.ports)
		next := ^uint64(0)
		nlink := r.ports * f.Cfg.VCs
		for idx := 0; idx < nlink+f.Cfg.VCs; idx++ {
			q := r.queueAt(idx, f.Cfg.VCs)
			bit := uint64(1) << uint(idx)
			// headVC means something only for a routed head.
			out, vc := int8(-1), r.headVC[idx]
			switch {
			case q.len() == 0:
			case idx < nlink && q.peek().ArriveCycle > cycle:
				wait |= bit
				next = min(next, q.peek().ArriveCycle)
			case int(q.peek().Dst) == r.node:
				if idx >= nlink {
					t.Fatalf("cycle %d node %d: injection queue %d holds a self-addressed head", cycle, r.node, idx)
				}
				eject |= bit
			default:
				h := q.peek()
				out, vc = r.routeTo[h.Dst], int8(vcBase(h.Kind)+int(r.hopClass[h.Dst]))
				wantQ[out] |= bit
				routed |= bit
			}
			if r.headOut[idx] != out || r.headVC[idx] != vc {
				t.Fatalf("cycle %d node %d queue %d: cached route %d VC %d, head wants %d VC %d",
					cycle, r.node, idx, r.headOut[idx], r.headVC[idx], out, vc)
			}
		}
		if eject != r.ejectHead || routed != r.routed {
			t.Fatalf("cycle %d node %d: ejectHead %b routed %b, scan %b and %b",
				cycle, r.node, r.ejectHead, r.routed, eject, routed)
		}
		for out := range wantQ {
			if wantQ[out] != r.wantQ[out] {
				t.Fatalf("cycle %d node %d: wantQ[%d] %b, scan %b", cycle, r.node, out, r.wantQ[out], wantQ[out])
			}
		}
		if wait != r.waitMask || next != r.nextAt || (f.waitNodes>>uint(r.node)&1 == 1) != (wait != 0) {
			t.Fatalf("cycle %d node %d: waitMask %b nextAt %d waitNodes %b, scan %b and %d",
				cycle, r.node, r.waitMask, r.nextAt, f.waitNodes, wait, next)
		}
		if busy := f.busyNodes>>uint(r.node)&1 == 1; busy != (eject|routed != 0) {
			t.Fatalf("cycle %d node %d: busy bit %v, but an arrived head %v", cycle, r.node, busy, eject|routed != 0)
		}
	}
}

// TestOccupancyCountersMatchScan floods the fabric with all-pairs traffic
// and cross-checks the O(1) occupancy state (Drained, InFlight, the head
// cache and masks the tick phases act on) against a full scan at every
// cycle. The counters are what both System.done() and the idle-aware
// scheduler trust, so drift here would silently corrupt simulated timing.
func TestOccupancyCountersMatchScan(t *testing.T) {
	f, cols := newTestFabric(t)
	want := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			p := NewPacket(UpdateReq, s, d)
			for cyc := uint64(0); !f.Inject(s, p, cyc); cyc++ {
				f.Tick(cyc)
			}
			want++
		}
	}
	total := func() int {
		n := 0
		for _, c := range cols {
			n += len(c.got)
		}
		return n
	}
	for cyc := uint64(0); total() < want && cyc < 100000; cyc++ {
		f.Tick(cyc)
		checkOccupancy(t, f, cyc)
	}
	if total() != want {
		t.Fatalf("delivered %d of %d packets", total(), want)
	}
	if !f.Drained() {
		t.Fatal("fabric should be drained")
	}
}

// TestFabricNextWork pins the idle-hint contract: an empty fabric is
// quiescent, a queued packet demands work on the next network clock edge,
// and a fully in-flight packet reports its arrival cycle.
func TestFabricNextWork(t *testing.T) {
	f, _ := newTestFabric(t)
	const never = ^uint64(0)
	if w := f.NextWork(7); w != never {
		t.Fatalf("empty fabric NextWork = %d, want Never", w)
	}
	p := NewPacket(MemReadReq, 0, 15)
	if !f.Inject(0, p, 0) {
		t.Fatal("injection failed")
	}
	// ClockDiv=2: odd cycles must round up to the next even edge.
	if w := f.NextWork(3); w != 4 {
		t.Fatalf("queued-packet NextWork(3) = %d, want 4", w)
	}
	f.Tick(0) // injection queue drains onto the link
	if f.busyNodes != 0 {
		t.Fatalf("a router is still busy after the packet left: %b", f.busyNodes)
	}
	w := f.NextWork(2)
	if w <= 2 || w == never {
		t.Fatalf("link-traversal NextWork = %d, want future arrival cycle", w)
	}
	for cyc := uint64(0); !f.Drained() && cyc < 1000; cyc++ {
		f.Tick(cyc)
	}
	if !f.Drained() {
		t.Fatal("fabric should drain")
	}
}

// TestNewFabricRejectsNonPow2ClockDiv: the fabric has only the mask-and-
// shift clock path, so a divider it cannot serve must panic at build time.
func TestNewFabricRejectsNonPow2ClockDiv(t *testing.T) {
	for _, div := range []uint64{0, 3, 6} {
		cfg := DefaultMemNetConfig()
		cfg.ClockDiv = div
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFabric accepted ClockDiv %d", div)
				}
			}()
			NewFabric(NewDragonfly([]int{0, 4, 8, 12}), cfg)
		}()
	}
}
