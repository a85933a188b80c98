// Package cache implements the host cache hierarchy of Table 4.1: private
// L1 data caches, a shared S-NUCA L2 distributed over the 4×4 mesh, and a
// directory-based MESI protocol, including the back-invalidation query path
// that Active-Routing offloads take before entering the memory network
// (§3.4.2).
//
// The protocol is a timing model: coherence state transitions, message
// traffic, queueing and latencies are simulated, but data values live in
// the functional backing store (internal/mem), which is written at
// instruction commit. That separation keeps in-network reductions
// numerically checkable without modeling data payload movement twice.
package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/network"
)

// MsgType enumerates coherence and memory-interface messages tunneled over
// the NoC.
type MsgType uint8

// Message types.
const (
	MsgGetS       MsgType = iota // L1 -> L2: read miss
	MsgGetX                      // L1 -> L2: write miss / upgrade
	MsgPutM                      // L1 -> L2: dirty eviction writeback
	MsgData                      // L2 -> L1: fill (Excl marks E grant)
	MsgInval                     // L2 -> L1: invalidate
	MsgInvAck                    // L1 -> L2: invalidation acknowledgement
	MsgFetch                     // L2 -> owner L1: downgrade to S and return data
	MsgFetchInv                  // L2 -> owner L1: invalidate and return data
	MsgFetchResp                 // owner L1 -> L2
	MsgBackInvalQ                // MI -> L2: Active-Routing offload coherence query
	MsgBackInvalD                // L2 -> MI: query done, offload may proceed
	MsgMemRead                   // L2 -> MC tile: fetch block from memory
	MsgMemWrite                  // L2 -> MC tile: write block to memory
	MsgMemResp                   // MC tile -> L2
)

// String returns the message mnemonic.
func (t MsgType) String() string {
	names := [...]string{"GetS", "GetX", "PutM", "Data", "Inval", "InvAck",
		"Fetch", "FetchInv", "FetchResp", "BackInvalQ", "BackInvalD",
		"MemRead", "MemWrite", "MemResp"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// isResponse reports whether the message travels in the NoC response class.
func (t MsgType) isResponse() bool {
	switch t {
	case MsgData, MsgInvAck, MsgFetchResp, MsgBackInvalD, MsgMemResp:
		return true
	}
	return false
}

// carriesData reports whether the message carries a 64-byte block payload.
func (t MsgType) carriesData() bool {
	switch t {
	case MsgData, MsgPutM, MsgFetchResp, MsgMemWrite, MsgMemResp:
		return true
	}
	return false
}

// Msg is one coherence/memory message: a few header words, passed and
// queued by value. Nothing owns a message and nothing releases one; on the
// NoC it rides in the header fields of one packet (PacketFor, MsgOf).
type Msg struct {
	Block mem.PAddr // block-aligned address
	From  int       // component id of sender (core id or bank id)
	Tag   uint64
	Type  MsgType
	Excl  bool // MsgData: exclusive (E) grant
	Dirty bool // MsgFetchResp/MsgPutM: block was modified
}

// Sender injects a coherence message into the NoC; the system package wires
// it to the mesh fabric. It reports false on injection backpressure, and the
// caller keeps its copy of the message to retry.
type Sender func(dstTile int, m Msg) bool

// Wire format of a message in a NoC packet: Block, From and Tag travel in
// the packet's Addr, Origin and Tag fields, and the packet's Host word holds
// Type in its low byte plus the Excl and Dirty flags. The fabric reads none
// of these fields; PacketFor and MsgOf are their only writer and reader.
const (
	hostExcl  uint16 = 1 << 8
	hostDirty uint16 = 1 << 9
)

// PacketFor carries m in a NoC packet from srcTile to dstTile with the
// correct traffic class and wire size.
//
//ar:hotpath
func PacketFor(m Msg, srcTile, dstTile int) network.Packet {
	kind := network.HostMsg
	if m.Type.isResponse() {
		kind = network.HostMsgResp
	}
	p := network.NewPacket(kind, srcTile, dstTile)
	if m.Type.carriesData() {
		p.Size = network.HeaderBytes + mem.BlockSize
	}
	p.Addr, p.Origin, p.Tag = m.Block, uint8(m.From), m.Tag
	p.Host = uint16(m.Type)
	if m.Excl {
		p.Host |= hostExcl
	}
	if m.Dirty {
		p.Host |= hostDirty
	}
	return p
}

// MsgOf returns the message a PacketFor packet carries.
func MsgOf(p *network.Packet) Msg {
	return Msg{
		Block: p.Addr,
		From:  int(p.Origin),
		Tag:   p.Tag,
		Type:  MsgType(p.Host),
		Excl:  p.Host&hostExcl != 0,
		Dirty: p.Host&hostDirty != 0,
	}
}

// Stats aggregates hierarchy counters for the power model and tests.
type Stats struct {
	L1Accesses   uint64
	L1Hits       uint64
	L1Misses     uint64
	L1Evictions  uint64
	L2Accesses   uint64
	L2Hits       uint64
	L2Misses     uint64
	L2Evictions  uint64
	Invals       uint64
	Fetches      uint64
	BackInvalQ   uint64
	BackInvalHit uint64
	MemReads     uint64
	MemWrites    uint64
}

// counters lists the Stats fields in snapshot order.
func (s *Stats) counters() []*uint64 {
	return []*uint64{&s.L1Accesses, &s.L1Hits, &s.L1Misses, &s.L1Evictions,
		&s.L2Accesses, &s.L2Hits, &s.L2Misses, &s.L2Evictions, &s.Invals, &s.Fetches,
		&s.BackInvalQ, &s.BackInvalHit, &s.MemReads, &s.MemWrites}
}

// Merge adds other into s.
func (s *Stats) Merge(o Stats) {
	dst, src := s.counters(), o.counters()
	for i, p := range dst {
		*p += *src[i]
	}
}
