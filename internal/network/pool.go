package network

import "fmt"

// Packet pool states (Packet.poolState).
const (
	poolLoose uint8 = iota // not pool-managed (NewPacket, tests); adopted on first Put
	poolLive               // acquired from a pool, owned by exactly one component
	poolFree               // sitting in a free list; any touch is a lifecycle bug
)

// Pool is a fabric-owned Packet free list. The simulator is single-threaded
// within one machine, so Get/Put are plain slice operations with no locking;
// separate System instances (sweep workers) each own separate pools.
//
// Ownership contract (DESIGN.md "Memory discipline"): a packet is acquired
// by the component that would have called NewPacket (cpu MI path, caches via
// PacketFor, HMC controller/cube, coordinator, ARE) and travels with exactly
// one owner at a time — the fabric between Inject and a successful endpoint
// Deliver, the endpoint afterwards. It is released exactly once, at its
// single point of final consumption: the ejection commit for synchronously
// consumed kinds, the reply completion for request/response pairs, or the
// decode commit for ARE-buffered active packets. A refused Deliver releases
// nothing (the fabric still owns the packet and re-offers it).
//
// Put panics on double release in every build. SetGuard(true) additionally
// poisons released packets so that a stale alias is caught at its next use
// (an Inject of a poisoned packet panics on the invalid destination) — the
// debug mode the pool contract tests run under.
type Pool struct {
	free  []*Packet
	guard bool
}

// NewPool returns an empty packet pool.
func NewPool() *Pool { return &Pool{} }

// SetGuard toggles alias poisoning on release (debug builds and tests).
func (pl *Pool) SetGuard(on bool) { pl.guard = on }

// Get returns a zeroed packet of kind k from src to dst, reusing a released
// packet when one is available. The returned packet is indistinguishable
// from NewPacket(0, k, src, dst).
//
//ar:hotpath
func (pl *Pool) Get(k Kind, src, dst int) *Packet {
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		*p = Packet{}
	} else {
		p = &Packet{} //ar:exempt(hotpath) pool slow path: allocates only when the free list is empty, cold after warm-up
	}
	p.Kind, p.Src, p.Dst, p.Size = k, src, dst, SizeOf(k)
	p.poolState = poolLive
	return p
}

// Put releases a packet back to the free list. Releasing a packet that is
// already free is a lifecycle bug and panics; packets built with NewPacket
// (poolLoose) are adopted into the pool on their first release.
//
//ar:hotpath
func (pl *Pool) Put(p *Packet) {
	if p.poolState == poolFree {
		panic(fmt.Sprintf("network: double release of packet id=%d kind=%s", p.ID, p.Kind))
	}
	p.poolState = poolFree
	if pl.guard {
		// Poison so a stale alias blows up at its next use instead of
		// silently corrupting a future packet: Kind 0 is invalid and the
		// negative destination fails Inject's range check.
		p.Kind = KindInvalid
		p.Dst = -1
		p.Src = -1
	}
	pl.free = append(pl.free, p) //ar:exempt(hotpath) free list reaches steady-state capacity; append stops growing after warm-up
}

// FreeLen reports the current free-list length (tests).
func (pl *Pool) FreeLen() int { return len(pl.free) }
