// Package pool is the poolown analyzer fixture. It acquires real
// network.Pool packets (resolved through the same loader arlint uses) and
// walks each lifecycle violation the analyzer exists to catch — headed by
// the double release the runtime guard can only catch after the pool has
// already handed the packet to a second owner.
package pool

import (
	"repro/internal/cache"
	"repro/internal/network"
)

// sender stands in for the fabric's conditional-transfer API: true means
// the callee took ownership of the packet, false means the caller kept it.
type sender interface {
	send(p *network.Packet) bool
}

// doubleRelease is the historical bug class: a packet Put back twice
// corrupts the free list for whoever drew it in between.
func doubleRelease(pl *network.Pool) {
	p := pl.Get(network.MemReadReq, 0, 1)
	pl.Put(p)
	pl.Put(p) // want `double release of p`
}

// useAfterRelease reads a field of a packet the pool may already have
// handed to another owner.
func useAfterRelease(pl *network.Pool) int {
	p := pl.Get(network.MemReadReq, 0, 1)
	pl.Put(p)
	return p.Src // want `use of p after release`
}

// leakOnBranch forgets the packet on the early-return path.
func leakOnBranch(pl *network.Pool, drop bool) {
	p := pl.Get(network.MemReadReq, 0, 1) // want `p may leak`
	if drop {
		return
	}
	pl.Put(p)
}

// injectAndForget drops the packet when the send is refused — the refused-
// Inject leak the conditional-transfer rule exists to catch.
func injectAndForget(pl *network.Pool, s sender) {
	p := pl.Get(network.MemReadReq, 0, 1) // want `p may leak`
	if !s.send(p) {
		return
	}
}

// messageAndForget acquires its packet through cache.PacketFor, which
// draws from the pool it is given, and drops it on a refused send.
func messageAndForget(pl *network.Pool, s sender, m cache.Msg) {
	p := cache.PacketFor(pl, m, 0, 1) // want `p may leak`
	if !s.send(p) {
		return
	}
}

// injectOrRecycle is the correct shape: the refusing branch returns the
// packet to its pool. No diagnostic.
func injectOrRecycle(pl *network.Pool, s sender) {
	p := pl.Get(network.MemReadReq, 0, 1)
	if !s.send(p) {
		pl.Put(p)
	}
}

// stash transfers ownership into a longer-lived structure. No diagnostic.
func stash(pl *network.Pool, q *[]*network.Packet) {
	p := pl.Get(network.MemReadReq, 0, 1)
	*q = append(*q, p)
}

// overwrite drops an owned packet by reassigning its variable.
func overwrite(pl *network.Pool) {
	p := pl.Get(network.MemReadReq, 0, 1)
	p = pl.Get(network.MemReadReq, 0, 2) // want `p still owns the object`
	pl.Put(p)
}

// deferredRelease is the allowed defer shape, and a second Put on top of
// the pending deferred one is a double release.
func deferredRelease(pl *network.Pool, early bool) int {
	p := pl.Get(network.MemReadReq, 0, 1)
	defer pl.Put(p)
	if early {
		pl.Put(p) // want `double release of p`
	}
	return 0
}

// handoff returns the packet: ownership transfers to the caller.
func handoff(pl *network.Pool) *network.Packet {
	p := pl.Get(network.MemReadReq, 0, 1)
	p.Tag = 7
	return p
}

// exempted carries a reviewed claim that the helper releases the packet.
func exempted(pl *network.Pool, keep bool) {
	p := pl.Get(network.MemReadReq, 0, 1) //ar:exempt(poolown) recycleLater owns the tail of every path in this fixture
	if keep {
		return
	}
	pl.Put(p)
}
