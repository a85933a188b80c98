package isa

import (
	"fmt"
	"math"

	"repro/internal/mem"
)

// Trace record layout. Every instruction is one 16-byte record. Word 0
// packs the kind (bits 60-63) and the compute class or update op (bits
// 56-59) above a 56-bit address: the load/store/atomic address, the
// update's Src1 or the gather's Target. Word 1 holds the store/atomic value
// bits, the gather's thread count, or the index of the update's entry in
// the trace's side array, which keeps the operands an update needs beyond
// Src1. Every other field of the kind is zero by construction, and Append
// refuses an instruction that says otherwise, so decoding a record yields
// exactly the instruction that was appended.
const (
	addrBits = 56
	addrMask = 1<<addrBits - 1
	subShift = addrBits
	subMask  = 0xf
	kindBits = 60

	// MaxTraceAddr is the largest address a trace record holds.
	MaxTraceAddr mem.VAddr = addrMask
)

// Records and side entries live in fixed power-of-two chunks: growth never
// copies, and the unused tail is at most one chunk per array.
const (
	chunkShift = 10
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

type record struct{ w0, w1 uint64 }

// updateOperands is an update's side-array entry.
type updateOperands struct {
	src2, target mem.VAddr
	imm          float64
	count        int
}

// chunks is an append-only array stored in fixed-size chunks.
type chunks[T any] struct {
	c []*[chunkLen]T
	n int
}

func (s *chunks[T]) push(v T) {
	if s.n&chunkMask == 0 {
		s.c = append(s.c, new([chunkLen]T))
	}
	s.c[s.n>>chunkShift][s.n&chunkMask] = v
	s.n++
}

func (s *chunks[T]) at(i int) *T { return &s.c[i>>chunkShift][i&chunkMask] }

// Trace is one thread's instruction trace in compact form: built once by
// Append, then replayed by any number of Replays.
type Trace struct {
	recs chunks[record]
	side chunks[updateOperands]
}

// Len reports the number of appended instructions.
func (t *Trace) Len() int { return t.recs.n }

// Append adds in to the trace. It panics when the record cannot hold the
// instruction exactly: an unknown kind, a class or op above 15, an address
// above MaxTraceAddr, an Update count outside [0, MaxCount], or a nonzero
// field the kind does not use.
func (t *Trace) Append(in Inst) {
	kind := in.Kind
	in.Kind = 0 // in keeps what remains once the record's fields are taken out
	var sub uint8
	var addr mem.VAddr
	var w1 uint64
	var ops updateOperands
	switch kind {
	case KindCompute:
		sub, in.Class = uint8(in.Class), 0
	case KindLoad:
		addr, in.Addr = in.Addr, 0
	case KindStore, KindAtomicAdd:
		addr, in.Addr = in.Addr, 0
		w1, in.Value = math.Float64bits(in.Value), 0
	case KindUpdate:
		if in.Count < 0 || in.Count > MaxCount {
			panic(fmt.Sprintf("isa: update element count %d outside [0,%d]", in.Count, MaxCount))
		}
		sub, in.Op = uint8(in.Op), 0
		addr, in.Src1 = in.Src1, 0
		ops = updateOperands{src2: in.Src2, target: in.Target, imm: in.Imm, count: in.Count}
		in.Src2, in.Target, in.Imm, in.Count = 0, 0, 0, 0
		w1 = uint64(t.side.n)
	case KindGather:
		addr, in.Target = in.Target, 0
		w1, in.Threads = uint64(in.Threads), 0
	case KindBarrier:
	default:
		panic(fmt.Sprintf("isa: trace cannot hold instruction kind %s", kind))
	}
	if sub > subMask || addr > MaxTraceAddr {
		panic(fmt.Sprintf("isa: %s instruction does not fit a trace record: class/op %d, address %#x", kind, sub, addr))
	}
	if !in.zero() {
		panic(fmt.Sprintf("isa: %s instruction carries fields its trace record does not hold: %+v", kind, in))
	}
	if kind == KindUpdate {
		t.side.push(ops)
	}
	t.recs.push(record{
		w0: uint64(kind)<<kindBits | uint64(sub)<<subShift | uint64(addr),
		w1: w1,
	})
}

// zero reports whether every field of in is zero, comparing floats by their
// bits so that a -0 the record would drop counts as set. It reads field by
// field because a whole-Inst copy or compare here costs more or less with
// the caller's stack alignment, and trace generation, most of a machine's
// set-up time, calls Append once per instruction.
func (in *Inst) zero() bool {
	return in.Kind == 0 && in.Class == 0 && in.Addr == 0 && math.Float64bits(in.Value) == 0 &&
		in.Src1 == 0 && in.Src2 == 0 && in.Target == 0 && in.Op == 0 &&
		math.Float64bits(in.Imm) == 0 && in.Threads == 0 && in.Count == 0
}

// decode writes instruction i into out, setting every field.
func (t *Trace) decode(i int, out *Inst) {
	r := t.recs.at(i)
	k := Kind(r.w0 >> kindBits)
	sub := uint8(r.w0>>subShift) & subMask
	addr := mem.VAddr(r.w0 & addrMask)
	*out = Inst{Kind: k}
	switch k {
	case KindCompute:
		out.Class = CompClass(sub)
	case KindLoad:
		out.Addr = addr
	case KindStore, KindAtomicAdd:
		out.Addr = addr
		out.Value = math.Float64frombits(r.w1)
	case KindUpdate:
		u := t.side.at(int(r.w1))
		out.Op = ALUOp(sub)
		out.Src1 = addr
		out.Src2 = u.src2
		out.Target = u.target
		out.Imm = u.imm
		out.Count = u.count
	case KindGather:
		out.Target = addr
		out.Threads = int(r.w1)
	}
}

// Replay returns a stream over the trace, positioned at its start.
func (t *Trace) Replay() *Replay { return &Replay{t: t} }

// Replay is the Stream over a Trace: it decodes the record at its cursor
// into a stream-owned scratch instruction.
type Replay struct {
	t   *Trace
	pos int
	cur Inst
}

// NextPtr implements Stream.
//
//ar:hotpath
func (r *Replay) NextPtr() (*Inst, bool) {
	if r.pos >= r.t.Len() {
		return nil, false
	}
	r.t.decode(r.pos, &r.cur)
	r.pos++
	return &r.cur, true
}

// Next implements Stream.
func (r *Replay) Next() (Inst, bool) {
	in, ok := r.NextPtr()
	if !ok {
		return Inst{}, false
	}
	return *in, true
}

// Pos implements Stream.
func (r *Replay) Pos() int { return r.pos }

// Len implements Stream.
func (r *Replay) Len() int { return r.t.Len() }

// SetPos implements Stream.
func (r *Replay) SetPos(pos int) {
	if pos < 0 || pos > r.t.Len() {
		panic(fmt.Sprintf("isa: replay position %d out of range [0,%d]", pos, r.t.Len()))
	}
	r.pos = pos
}
