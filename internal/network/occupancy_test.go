package network

import "testing"

// TestOccupancyCountersMatchScan floods the fabric with all-pairs traffic
// and cross-checks the O(1) occupancy counters (Drained, InFlight, the
// per-router queue masks the tick phases skip on) against a full scan at
// every network cycle. The counters are what both System.done() and the
// idle-aware scheduler trust, so drift here would silently corrupt
// simulated timing.
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
	check := func(cyc uint64) {
		if scan := f.InFlightScan(); scan != f.InFlight() {
			t.Fatalf("cycle %d: InFlight()=%d, scan=%d", cyc, f.InFlight(), scan)
		}
		if f.Drained() != (f.InFlightScan() == 0) {
			t.Fatalf("cycle %d: Drained()=%v disagrees with scan", cyc, f.Drained())
		}
		for _, r := range f.routers {
			in, inj := 0, 0
			var occ uint64
			for i := range r.in {
				in += r.in[i].len()
				if r.in[i].len() > 0 {
					occ |= 1 << uint(i)
				}
			}
			for i := range r.inj {
				inj += r.inj[i].len()
				if r.inj[i].len() > 0 {
					occ |= 1 << uint(r.ports*f.Cfg.VCs+i)
				}
			}
			if in != r.inCount || inj != r.injCount {
				t.Fatalf("cycle %d node %d: inCount=%d (scan %d), injCount=%d (scan %d)",
					cyc, r.node, r.inCount, in, r.injCount, inj)
			}
			if occ != r.occ {
				t.Fatalf("cycle %d node %d: occ mask %b, scan %b", cyc, r.node, r.occ, occ)
			}
		}
	}
	for cyc := uint64(0); total() < want && cyc < 100000; cyc++ {
		f.Tick(cyc)
		check(cyc)
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
	if f.queued != 0 {
		t.Fatalf("packet still queued after tick: %d", f.queued)
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
