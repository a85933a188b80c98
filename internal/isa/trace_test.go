package isa

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/mem"
)

// sameInst compares every field, floats by bits, so NaN payloads and the
// sign of zero count.
func sameInst(a, b Inst) bool {
	fa, fb := a, b
	fa.Value, fa.Imm, fb.Value, fb.Imm = 0, 0, 0, 0
	return fa == fb &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		math.Float64bits(a.Imm) == math.Float64bits(b.Imm)
}

// randInst draws a representable instruction of a random kind, mixing in
// the edge values a record must keep bit for bit.
func randInst(r *rand.Rand) Inst {
	addr := func() mem.VAddr {
		switch r.IntN(4) {
		case 0:
			return 0
		case 1:
			return MaxTraceAddr
		default:
			return mem.VAddr(r.Uint64() & uint64(MaxTraceAddr))
		}
	}
	f := func() float64 {
		switch r.IntN(5) {
		case 0:
			return math.Float64frombits(0x7ff8000000000000 | r.Uint64()&0xfffffffffffff) // NaN with payload
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(-1)
		default:
			return r.NormFloat64()
		}
	}
	switch k := Kind(r.IntN(int(KindBarrier) + 1)); k {
	case KindCompute:
		return Inst{Kind: k, Class: CompClass(r.IntN(int(ClassFPMul) + 1))}
	case KindLoad:
		return Inst{Kind: k, Addr: addr()}
	case KindStore, KindAtomicAdd:
		return Inst{Kind: k, Addr: addr(), Value: f()}
	case KindUpdate:
		return Inst{Kind: k, Op: ALUOp(r.IntN(int(OpConstAssign) + 1)), Src1: addr(), Src2: addr(),
			Target: addr(), Imm: f(), Count: r.IntN(MaxCount + 1)}
	case KindGather:
		return Inst{Kind: k, Target: addr(), Threads: r.IntN(MaxThreads + 1)}
	default:
		return Inst{Kind: k}
	}
}

// TestTraceRoundTripProperty appends a multi-chunk trace of random
// instructions and checks that sequential replay and random seeks decode
// each one exactly.
func TestTraceRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	want := make([]Inst, 3*chunkLen+17)
	tr := &Trace{}
	for i := range want {
		want[i] = randInst(r)
		tr.Append(want[i])
	}
	s := tr.Replay()
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for i := range want {
		in, ok := s.Next()
		if !ok || !sameInst(in, want[i]) {
			t.Fatalf("inst %d = %+v (ok %v), want %+v", i, in, ok, want[i])
		}
	}
	if _, ok := s.NextPtr(); ok {
		t.Fatal("replay not exhausted at Len")
	}
	for n := 0; n < 2000; n++ {
		pos := r.IntN(len(want))
		s.SetPos(pos)
		in, ok := s.NextPtr()
		if !ok || !sameInst(*in, want[pos]) || s.Pos() != pos+1 {
			t.Fatalf("seek %d: %+v (ok %v, pos %d), want %+v", pos, in, ok, s.Pos(), want[pos])
		}
	}
}

// TestTraceReplay pins the stream contract: positions count instructions
// across chunk boundaries, replays are independent, and SetPos rejects a
// position outside [0, Len].
func TestTraceReplay(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 2*chunkLen+1; i++ {
		tr.Append(Inst{Kind: KindLoad, Addr: mem.VAddr(8 * i)})
	}
	a, b := tr.Replay(), tr.Replay()
	for _, pos := range []int{chunkLen - 1, chunkLen, chunkLen + 1, 2 * chunkLen} {
		a.SetPos(pos)
		in, ok := a.NextPtr()
		if !ok || in.Addr != mem.VAddr(8*pos) || a.Pos() != pos+1 {
			t.Fatalf("at %d: %+v ok=%v pos=%d", pos, in, ok, a.Pos())
		}
	}
	if in, ok := b.Next(); !ok || in.Addr != 0 || b.Pos() != 1 {
		t.Fatalf("second replay shares the first's cursor: %+v pos=%d", in, b.Pos())
	}
	a.SetPos(a.Len())
	if _, ok := a.Next(); ok {
		t.Fatal("replay at Len must be exhausted")
	}
	for _, pos := range []int{-1, a.Len() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetPos(%d) accepted", pos)
				}
			}()
			a.SetPos(pos)
		}()
	}
}

// mustPanic reports whether Append refuses in.
func mustPanic(t *testing.T, in Inst) {
	t.Helper()
	tr := &Trace{}
	defer func() {
		if recover() == nil {
			t.Fatalf("Append(%+v) accepted an instruction its record cannot hold", in)
		}
		if tr.Len() != 0 || tr.side.n != 0 {
			t.Fatalf("refused Append(%+v) left state behind", in)
		}
	}()
	tr.Append(in)
}

func TestTraceRejectsUnrepresentable(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, in := range []Inst{
		{Kind: KindLoad, Addr: MaxTraceAddr + 1},
		{Kind: KindStore, Addr: math.MaxUint64, Value: 1},
		{Kind: KindUpdate, Src1: MaxTraceAddr + 1, Op: OpAdd},
		{Kind: KindGather, Target: 1 << 60, Threads: 1},
		{Kind: KindUpdate, Op: ALUOp(16)},
		{Kind: KindUpdate, Op: OpMac, Src1: 8, Src2: 16, Count: MaxCount + 1},
		{Kind: KindUpdate, Op: OpAdd, Src1: 8, Count: -1},
		{Kind: KindCompute, Class: CompClass(16)},
		{Kind: Kind(KindBarrier + 1)},
		{Kind: KindLoad, Value: 1},
		{Kind: KindLoad, Imm: negZero},
		{Kind: KindStore, Imm: math.NaN()},
		{Kind: KindCompute, Addr: 8},
		{Kind: KindGather, Count: 2},
		{Kind: KindBarrier, Threads: 4},
		{Kind: KindUpdate, Threads: 1},
	} {
		mustPanic(t, in)
	}
}

// FuzzTraceRoundTrip appends one arbitrary instruction: Append must refuse
// it exactly when a record cannot hold it, and otherwise the replay must
// decode it bit for bit.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add(uint8(KindLoad), uint8(0), uint64(64), uint64(0), uint64(0), uint64(0), uint64(0), uint8(0), uint64(0), 0, 0)
	f.Add(uint8(KindStore), uint8(0), uint64(8), math.Float64bits(math.Copysign(0, -1)), uint64(0), uint64(0), uint64(0), uint8(0), uint64(0), 0, 0)
	f.Add(uint8(KindUpdate), uint8(0), uint64(0), uint64(0), uint64(8), uint64(16), uint64(24), uint8(OpMac), uint64(0), 0, MaxCount)
	f.Add(uint8(KindUpdate), uint8(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(24), uint8(OpConstAssign), math.Float64bits(math.NaN()), 0, 0)
	f.Add(uint8(KindGather), uint8(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(24), uint8(0), uint64(0), MaxThreads, 0)
	f.Add(uint8(KindLoad), uint8(0), uint64(MaxTraceAddr)+1, uint64(0), uint64(0), uint64(0), uint64(0), uint8(0), uint64(0), 0, 0)
	f.Fuzz(func(t *testing.T, kind, class uint8, addr, value, src1, src2, target uint64, op uint8, imm uint64, threads, count int) {
		in := Inst{
			Kind: Kind(kind), Class: CompClass(class), Addr: mem.VAddr(addr),
			Value: math.Float64frombits(value), Src1: mem.VAddr(src1), Src2: mem.VAddr(src2),
			Target: mem.VAddr(target), Op: ALUOp(op), Imm: math.Float64frombits(imm),
			Threads: threads, Count: count,
		}
		if !representable(in) {
			mustPanic(t, in)
			return
		}
		tr := &Trace{}
		tr.Append(Inst{Kind: KindBarrier}) // in is not the first record
		tr.Append(in)
		s := tr.Replay()
		s.SetPos(1)
		got, ok := s.Next()
		if !ok || !sameInst(got, in) {
			t.Fatalf("decoded %+v, appended %+v", got, in)
		}
	})
}

// representable is the record's specification, written independently of
// the encoder: which fields each kind carries, and their widths.
func representable(in Inst) bool {
	zeroed := func(keep func(*Inst)) bool {
		z := Inst{Kind: in.Kind}
		keep(&z)
		return sameInst(in, z)
	}
	fits := func(a mem.VAddr) bool { return a <= MaxTraceAddr }
	switch in.Kind {
	case KindCompute:
		return in.Class < 16 && zeroed(func(z *Inst) { z.Class = in.Class })
	case KindLoad:
		return fits(in.Addr) && zeroed(func(z *Inst) { z.Addr = in.Addr })
	case KindStore, KindAtomicAdd:
		return fits(in.Addr) && zeroed(func(z *Inst) { z.Addr, z.Value = in.Addr, in.Value })
	case KindUpdate:
		return in.Op < 16 && fits(in.Src1) && in.Count >= 0 && in.Count <= MaxCount && zeroed(func(z *Inst) {
			z.Op, z.Src1, z.Src2, z.Target, z.Imm, z.Count = in.Op, in.Src1, in.Src2, in.Target, in.Imm, in.Count
		})
	case KindGather:
		return fits(in.Target) && zeroed(func(z *Inst) { z.Target, z.Threads = in.Target, in.Threads })
	case KindBarrier:
		return zeroed(func(*Inst) {})
	}
	return false
}
