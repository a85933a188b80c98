package network

import (
	"strings"
	"testing"
)

// TestPoolRoundTrip pins the basic contract: Get returns a packet
// indistinguishable from NewPacket, and released packets are reused.
func TestPoolRoundTrip(t *testing.T) {
	pl := NewPool()
	p := pl.Get(UpdateReq, 3, 7)
	ref := NewPacket(0, UpdateReq, 3, 7)
	if p.Kind != ref.Kind || p.Src != ref.Src || p.Dst != ref.Dst || p.Size != ref.Size {
		t.Fatalf("Get mismatch: %+v vs %+v", p, ref)
	}
	p.Value = 42
	p.Hops = 3
	pl.Put(p)
	q := pl.Get(MemReadReq, 1, 2)
	if q != p {
		t.Fatal("free list not reused")
	}
	if q.Value != 0 || q.Hops != 0 || q.Kind != MemReadReq || q.Size != MemReadReqBytes {
		t.Fatalf("reused packet not reset: %+v", q)
	}
}

// TestPoolDoubleReleaseGuard simulates the release-then-reuse lifecycle
// across two simulated cycles and asserts the alias guard fires on the
// double release. Run under -race in CI: cycle 1 releases the packet at
// its consumption point; cycle 2 re-acquires the same storage for a new
// packet while a stale alias from cycle 1 attempts a second release.
func TestPoolDoubleReleaseGuard(t *testing.T) {
	pl := NewPool()
	pl.SetGuard(true)

	// Cycle 1: a component consumes and releases its packet, but keeps a
	// stale alias (the bug class the guard exists for).
	stale := pl.Get(OperandResp, 0, 5)
	pl.Put(stale)

	// The double release must panic before cycle 2 can be corrupted.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("double release did not panic")
			}
			if !strings.Contains(r.(string), "double release") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		pl.Put(stale)
	}()

	// Cycle 2: with guard poisoning, the freed packet was defused (invalid
	// kind, negative destination), so a use of the stale alias trips the
	// fabric's own checks instead of corrupting a live packet.
	if stale.Dst >= 0 || stale.Kind != KindInvalid {
		t.Fatalf("guard did not poison released packet: %+v", stale)
	}

	// Reuse after release is legal and yields a fully reset packet.
	fresh := pl.Get(UpdateReq, 1, 2)
	if fresh.Kind != UpdateReq || fresh.Dst != 2 {
		t.Fatalf("reuse after release broken: %+v", fresh)
	}
}

// TestPoolAdoptsLoosePackets: packets built with NewPacket (tests, old call
// sites) enter the pool on their first release and get the same guard.
func TestPoolAdoptsLoosePackets(t *testing.T) {
	pl := NewPool()
	p := NewPacket(9, GatherReq, 0, 1)
	pl.Put(p)
	if pl.FreeLen() != 1 {
		t.Fatal("loose packet not adopted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double release of adopted packet did not panic")
		}
	}()
	pl.Put(p)
}

// TestDeliveredCountersSurviveSynchronousRelease pins the ownership rule at
// the ejection commit: real endpoints release the packet inside Deliver, so
// the fabric must not read the packet after handing it over. Guard mode
// poisons released packets, which makes an after-Deliver read visible.
func TestDeliveredCountersSurviveSynchronousRelease(t *testing.T) {
	f := NewFabric(NewMesh(4, nil), DefaultNoCConfig())
	f.Pool.SetGuard(true)
	for n := 0; n < f.Topo.Nodes(); n++ {
		f.SetEndpoint(n, EndpointFunc(func(p *Packet, cycle uint64) bool {
			f.Pool.Put(p) // synchronous consumer, like the real endpoints
			return true
		}))
	}
	p := f.Pool.Get(MemReadReq, 0, 5)
	if !f.Inject(0, p, 0) {
		t.Fatal("inject refused")
	}
	for c := uint64(0); c < 200 && !f.Drained(); c++ {
		f.Tick(c)
	}
	if !f.Drained() {
		t.Fatal("packet never delivered")
	}
	if f.Delivered != 1 {
		t.Fatalf("Delivered = %d, want 1", f.Delivered)
	}
}
