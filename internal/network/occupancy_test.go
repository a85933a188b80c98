package network

import "testing"

// inFlightScan recounts in-flight packets by walking every queue; a packet
// on a wire already sits in its next router's input ring.
func inFlightScan(f *Fabric) int {
	n := 0
	for i := range f.routers {
		r := &f.routers[i]
		for q := 0; q < r.nin; q++ {
			n += r.q[q].len()
		}
	}
	return n
}

// checkOccupancy cross-checks the fabric's O(1) occupancy state against a
// full scan after the fabric has ticked cycle.
//
//   - The InFlight counter equals the packets in the rings.
//   - The head cache holds exactly the arrived heads (an injection head, or
//     a link-input head whose ArriveCycle is not ahead of cycle): an
//     ejectHead bit for each link-input head addressed to this node, and
//     for every other head its route, its downstream VC and its bit in
//     wantQ[route], in no other wantQ. Empty and waiting queues hold no bit
//     anywhere. eject and forward act on the cache without re-reading the
//     head, so this is the invariant that makes them correct.
//   - wantPorts has bit out set exactly when wantQ[out] is nonzero, and the
//     router's busy bit is set exactly when some head has arrived.
//   - Each arrival list is in arrival order, due is the earliest arrival
//     on their heads, and every head still on the wire has an arrival for
//     its ring position at its ArriveCycle, so the land phase files it;
//     NextWork is the next clock edge while a head has arrived, else the
//     earliest such arrival.
func checkOccupancy(t testing.TB, f *Fabric, cycle uint64) {
	t.Helper()
	if scan := inFlightScan(f); scan != f.InFlight() || f.Drained() != (scan == 0) {
		t.Fatalf("cycle %d: InFlight()=%d Drained()=%v, scan=%d", cycle, f.InFlight(), f.Drained(), scan)
	}
	type slot struct {
		node, idx int
		pos       uint32
	}
	listed := map[slot]uint64{}
	due := ^uint64(0)
	for i := range f.arrivals {
		l := &f.arrivals[i]
		for k := 0; k < l.Len(); k++ {
			a := l.At(k)
			if k == 0 {
				due = min(due, a.at)
			} else if a.at < l.At(k-1).at {
				t.Fatalf("cycle %d: arrival list %d out of order at entry %d: %d after %d", cycle, i, k, a.at, l.At(k-1).at)
			}
			listed[slot{int(a.node), int(a.idx), a.pos}] = a.at
		}
	}
	if due != f.due {
		t.Fatalf("cycle %d: due %d, earliest listed arrival %d", cycle, f.due, due)
	}
	earliest, arrived := ^uint64(0), false
	for i := range f.routers {
		r := &f.routers[i]
		var eject, routed, ports uint64
		var wantQ [maxPorts]uint64
		for idx := 0; idx < r.nin; idx++ {
			q := &r.q[idx]
			bit := uint64(1) << uint(idx)
			// headVC means something only for a routed head.
			out, vc := int8(-1), r.headVC[idx]
			switch {
			case q.len() == 0:
			case idx < r.nlink && q.peek().ArriveCycle > cycle:
				at, ok := listed[slot{r.node, idx, q.head}]
				if !ok || at != q.peek().ArriveCycle {
					t.Fatalf("cycle %d node %d queue %d: head on the wire until %d has arrival %d listed %v",
						cycle, r.node, idx, q.peek().ArriveCycle, at, ok)
				}
				earliest = min(earliest, at)
			case int(q.peek().Dst) == r.node:
				if idx >= r.nlink {
					t.Fatalf("cycle %d node %d: injection queue %d holds a self-addressed head", cycle, r.node, idx)
				}
				eject |= bit
			default:
				h := q.peek()
				out, vc = r.routeTo[h.Dst], int8(vcBase(h.Kind)+int(r.hopClass[h.Dst]))
				wantQ[out] |= bit
				routed |= bit
				ports |= 1 << uint(out)
			}
			if r.headOut[idx] != out || r.headVC[idx] != vc {
				t.Fatalf("cycle %d node %d queue %d: cached route %d VC %d, head wants %d VC %d",
					cycle, r.node, idx, r.headOut[idx], r.headVC[idx], out, vc)
			}
		}
		if eject != r.ejectHead || ports != r.wantPorts {
			t.Fatalf("cycle %d node %d: ejectHead %b wantPorts %b, scan %b and %b",
				cycle, r.node, r.ejectHead, r.wantPorts, eject, ports)
		}
		if wantQ != r.wantQ {
			t.Fatalf("cycle %d node %d: wantQ %b, scan %b", cycle, r.node, r.wantQ, wantQ)
		}
		if busy := f.busyNodes>>uint(r.node)&1 == 1; busy != (eject|routed != 0) {
			t.Fatalf("cycle %d node %d: busy bit %v, but an arrived head %v", cycle, r.node, busy, eject|routed != 0)
		}
		arrived = arrived || eject|routed != 0
	}
	// NextWork asks for the next clock edge while a head has arrived, else
	// for the earliest waiting head's arrival. An arrival dropped behind its
	// queue's head never comes first, as that head leaves the wire before
	// it, so no tick is asked for that would do nothing.
	want := ^uint64(0)
	switch {
	case arrived:
		want = f.alignUp(cycle + 1)
	case earliest != ^uint64(0):
		want = f.alignUp(max(cycle+1, earliest))
	}
	if got := f.NextWork(cycle + 1); got != want {
		t.Fatalf("cycle %d: NextWork(%d) = %d, want %d", cycle, cycle+1, got, want)
	}
}

// TestOccupancyCountersMatchScan floods the fabric with all-pairs traffic
// and cross-checks the O(1) occupancy state (Drained, InFlight, the head
// cache, masks and arrival lists the tick phases act on) against a full
// scan at every cycle. The counters are what both System.done() and the
// idle-aware scheduler trust, so drift here would silently corrupt
// simulated timing.
func TestOccupancyCountersMatchScan(t *testing.T) {
	f, cols := newTestFabric(t)
	want := 0
	cycle := uint64(0)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			p := NewPacket(UpdateReq, s, d)
			for ; !f.Inject(s, p, cycle); cycle++ {
				f.Tick(cycle)
				checkOccupancy(t, f, cycle)
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
	for ; total() < want && cycle < 100000; cycle++ {
		f.Tick(cycle)
		checkOccupancy(t, f, cycle)
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
