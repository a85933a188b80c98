// Package network implements the packet-switched interconnect fabric used
// twice in the simulated machine: as the 4×4 mesh network-on-chip of the
// host CMP and as the 16-cube dragonfly memory network (Table 4.1). Routers
// use virtual cut-through switching at packet granularity, bounded input
// queues per virtual channel, and credit-based flow control, which is the
// level of detail the thesis's congestion results (static ART hotspot vs
// the ARF forests, Fig 5.1/5.2) depend on.
package network

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Kind identifies the packet type. Memory and operand traffic is routed
// end-to-end; active Update/Gather traffic is consumed and re-issued hop by
// hop by the Active-Routing Engines so that every cube on the path can
// maintain tree state.
type Kind uint8

// Packet kinds.
const (
	KindInvalid Kind = iota

	// Plain memory traffic (also used on the NoC for coherence payloads).
	MemReadReq
	MemWriteReq
	MemReadResp
	MemWriteAck

	// Active-Routing traffic (§3.3, Fig 3.4).
	UpdateReq
	GatherReq
	GatherResp
	OperandReq
	OperandResp

	// Active stores (mov / const_assign updates, see DESIGN.md).
	ActiveStoreReq
	ActiveStoreAck

	// Host-side messages tunneled over the NoC (coherence, MI traffic),
	// split into request and response classes for VC assignment.
	HostMsg
	HostMsgResp
)

// String returns the packet kind mnemonic.
func (k Kind) String() string {
	switch k {
	case MemReadReq:
		return "mem_read_req"
	case MemWriteReq:
		return "mem_write_req"
	case MemReadResp:
		return "mem_read_resp"
	case MemWriteAck:
		return "mem_write_ack"
	case UpdateReq:
		return "update_req"
	case GatherReq:
		return "gather_req"
	case GatherResp:
		return "gather_resp"
	case OperandReq:
		return "operand_req"
	case OperandResp:
		return "operand_resp"
	case ActiveStoreReq:
		return "active_store_req"
	case ActiveStoreAck:
		return "active_store_ack"
	case HostMsg:
		return "host_msg"
	case HostMsgResp:
		return "host_msg_resp"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsResponse reports whether the kind travels in the response traffic class
// (separate virtual channels break request-response deadlock cycles).
func (k Kind) IsResponse() bool {
	switch k {
	case MemReadResp, MemWriteAck, GatherResp, OperandResp, ActiveStoreAck, HostMsgResp:
		return true
	}
	return false
}

// Active reports whether the packet belongs to Active-Routing traffic for
// the data-movement split of Fig 5.4.
func (k Kind) Active() bool {
	switch k {
	case UpdateReq, GatherReq, GatherResp, OperandReq, OperandResp,
		ActiveStoreReq, ActiveStoreAck:
		return true
	}
	return false
}

// Packet sizes in bytes: a 16-byte header plus payload. Update packets
// carry two operand addresses, a target and an opcode; operand responses
// carry one 8-byte word; memory responses carry a 64-byte block.
const (
	HeaderBytes      = 16
	MemReadReqBytes  = HeaderBytes
	MemWriteReqBytes = HeaderBytes + mem.BlockSize
	MemReadRespBytes = HeaderBytes + mem.BlockSize
	MemWriteAckBytes = HeaderBytes
	// Active packets use a packed flit encoding (48-bit addresses, opcode
	// folded into the header) so an update rides a single link cycle; the
	// thesis's fine-grained offloading depends on cheap update flits.
	UpdateReqBytes   = 32 // src1, src2, target (48-bit each), opcode+tree
	GatherReqBytes   = 24
	GatherRespBytes  = 24 // flow id + partial result
	OperandReqBytes  = 24
	OperandRespBytes = 24
	ActiveStoreBytes = 24
	ActiveAckBytes   = HeaderBytes
)

// SizeOf returns the wire size in bytes for a packet kind.
func SizeOf(k Kind) int {
	switch k {
	case MemReadReq:
		return MemReadReqBytes
	case MemWriteReq:
		return MemWriteReqBytes
	case MemReadResp:
		return MemReadRespBytes
	case MemWriteAck:
		return MemWriteAckBytes
	case UpdateReq:
		return UpdateReqBytes
	case GatherReq:
		return GatherReqBytes
	case GatherResp:
		return GatherRespBytes
	case OperandReq:
		return OperandReqBytes
	case OperandResp:
		return OperandRespBytes
	case ActiveStoreReq:
		return ActiveStoreBytes
	case ActiveStoreAck:
		return ActiveAckBytes
	case HostMsg, HostMsgResp:
		return HeaderBytes + 8
	default:
		return HeaderBytes
	}
}

// FlowKey identifies one Active-Routing tree: the flow (the reduction
// target's virtual address, §3.2.2) plus the tree index within the forest
// (the controller port that rooted it; always 0 for ART).
type FlowKey struct {
	Flow uint64
	Tree uint8
}

// Packet is one network packet, a plain value. A single struct covers all
// kinds; unused fields stay zero. Size is derived from Kind at
// construction. Node ids are bytes: NewFabric rejects topologies of more
// than 64 nodes. Small fields sit together so the struct stays at 96
// bytes, which a hop copies once, from one router ring into the next.
type Packet struct {
	Kind Kind
	// Host is an opaque header word for host-side messages tunneled over
	// the NoC (coherence and memory-interface traffic); the fabric never
	// reads it, and package cache owns its encoding.
	Host uint16
	Src  uint8 // source node id
	Dst  uint8 // destination node id
	Size uint8 // bytes on the wire
	// Count is a vectored update's element count (0/1 = scalar), at most
	// isa.MaxCount.
	Count uint8

	// Memory / operand fields.
	Addr  mem.PAddr
	Value float64
	Tag   uint64 // request/response matching

	// Active-Routing fields.
	Flow   FlowKey
	Src1   mem.PAddr // first operand physical address
	Src2   mem.PAddr // second operand physical address (0 = single-operand)
	Target mem.PAddr // physical address of the reduction target

	// Latency bookkeeping for Fig 5.2. On a hop ArriveCycle is the cycle
	// the packet leaves the wire into the next router's input ring; at
	// delivery the fabric overwrites it with the delivery cycle.
	InjectCycle uint64
	ArriveCycle uint64

	Op isa.ALUOp
	// Origin is the node that must receive the final acknowledgement for
	// multi-hop transactions (active stores read at one cube and written
	// at another).
	Origin uint8
}

// NewPacket builds a packet of kind k from src to dst with the standard
// size for its kind.
func NewPacket(k Kind, src, dst int) Packet {
	return Packet{Kind: k, Src: uint8(src), Dst: uint8(dst), Size: uint8(SizeOf(k))}
}
