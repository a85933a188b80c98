package sim

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshot codec: a flat little-endian byte stream with an append-style
// encoder writing into a caller-owned buffer and a sticky-error decoder.
// Components implement Snapshotter to serialize exactly the state that
// survives a quiescent point (DESIGN.md "Checkpointing"); everything
// rebuilt by construction (free lists, wiring, completion hooks) is omitted
// and restored structurally fresh.

// Snapshotter is the component snapshot protocol. Snapshot appends the
// component's quiescent-point state to e; Restore reads the same fields
// back in the same order into a freshly constructed component. Restore
// must validate every decoded count and index against the live structure
// (via Dec.Fail) so corrupt bytes surface as a decode error, never as a
// panic or an out-of-range write.
type Snapshotter interface {
	Snapshot(e *Enc)
	Restore(d *Dec)
}

// Enc appends snapshot fields to a caller-owned buffer. The zero value is
// ready to use; reusing a buffer across snapshots (Enc{B: buf[:0]}) makes
// steady-state encoding allocation-free once the buffer has grown to the
// snapshot's working size.
type Enc struct {
	B []byte
}

// U64 appends v.
func (e *Enc) U64(v uint64) {
	e.B = binary.LittleEndian.AppendUint64(e.B, v)
}

// U32 appends v.
func (e *Enc) U32(v uint32) {
	e.B = binary.LittleEndian.AppendUint32(e.B, v)
}

// Int appends v as a 64-bit integer.
func (e *Enc) Int(v int) { e.U64(uint64(int64(v))) }

// Bool appends v as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.B = append(e.B, 1)
	} else {
		e.B = append(e.B, 0)
	}
}

// F64 appends v by bit pattern.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bytes appends a length-prefixed byte slice.
func (e *Enc) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.B = append(e.B, b...)
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Tag appends a fixed section marker. Decoders check it with Dec.Tag,
// turning any field-order drift or torn write into a decode error at the
// section boundary instead of silently misinterpreted state downstream.
func (e *Enc) Tag(t string) { e.Str(t) }

// Dec reads snapshot fields back in encode order. Errors are sticky: the
// first underflow or validation failure latches and every later read
// returns zero values, so Restore implementations can decode straight
// through and check Err once.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err reports the first decode failure, or nil.
func (d *Dec) Err() error { return d.err }

// Fail latches a validation failure (no-op if one is already latched).
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("sim: snapshot decode: "+format, args...)
	}
}

// Remaining reports undecoded bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.Fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads one uint64.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U32 reads one uint32.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Int reads one int encoded by Enc.Int.
func (d *Dec) Int() int { return int(int64(d.U64())) }

// Bool reads one bool.
func (d *Dec) Bool() bool {
	b := d.take(1)
	return b != nil && b[0] != 0
}

// F64 reads one float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Len reads a length prefix and validates it against max (an upper bound
// implied by the live structure the caller restores into).
func (d *Dec) Len(max int, what string) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(max) {
		d.Fail("%s count %d exceeds limit %d", what, n, max)
		return 0
	}
	return int(n)
}

// BytesView reads a length-prefixed byte slice as a view into the decode
// buffer (valid until the buffer is reused).
func (d *Dec) BytesView() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.Fail("byte slice length %d exceeds remaining %d", n, d.Remaining())
		return nil
	}
	return d.take(int(n))
}

// BytesAt reads exactly n raw bytes (no length prefix) as a view into the
// decode buffer.
func (d *Dec) BytesAt(n int) []byte { return d.take(n) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string { return string(d.BytesView()) }

// Tag reads a section marker and fails unless it matches want.
func (d *Dec) Tag(want string) {
	got := d.Str()
	if d.err == nil && got != want {
		d.Fail("section tag mismatch: have %q, want %q", got, want)
	}
}

// State exposes the generator state for checkpointing.
func (r *Rand) State() uint64 { return r.state }

// SetState restores a snapshotted generator state.
func (r *Rand) SetState(s uint64) {
	if s == 0 {
		s = 0x9E3779B97F4A7C15 // xorshift all-zero fixed point, as in NewRand
	}
	r.state = s
}

// StartAt moves the engine clock to cycle and discards every cached idle
// hint and wakeup, so the next step re-polls all components. Polls are
// exact, so starting from a restored machine state reproduces the
// straight-through run bit-identically (only the SkippedTicks/JumpedCycles
// diagnostics may differ). Call only between runs.
func (e *Engine) StartAt(cycle uint64) {
	e.cycle = cycle
	e.heap = e.heap[:0]
	for i := range e.meta {
		e.meta[i].wakeAt = 0
		e.active[i>>6] |= 1 << uint(i&63)
	}
}
