package sim

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Snapshot codec: a flat little-endian byte stream with an append-style
// encoder writing into a caller-owned buffer and a sticky-error decoder.
// Components serialize exactly the state that survives a quiescent point
// (DESIGN.md "Checkpointing") in one State(*Stream) method; everything
// rebuilt by construction (free lists, wiring, completion hooks) is omitted
// and restored structurally fresh.

// Enc appends snapshot fields to a caller-owned buffer. The zero value is
// ready to use.
type Enc struct {
	B []byte
}

// U64 appends v.
func (e *Enc) U64(v uint64) { e.B = binary.LittleEndian.AppendUint64(e.B, v) }

// U32 appends v.
func (e *Enc) U32(v uint32) { e.B = binary.LittleEndian.AppendUint32(e.B, v) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Tag appends a fixed section marker. A decoding Stream checks it,
// turning any field-order drift or torn write into a decode error at the
// section boundary instead of silently misinterpreted state downstream.
func (e *Enc) Tag(t string) { e.Str(t) }

// Stream is one checkpoint pass over component state. An encoding stream
// (NewEncoder) appends every field it is handed through an Enc; a decoding
// stream (NewDecoder) overwrites every field from the blob, in the same
// order. A component lists its section's fields once, in a State(*Stream)
// method, so its encoder and decoder cannot drift apart. Validation
// against the live structure (ids, counts, indices) tests the streamed
// value and latches with Fail, so corrupt bytes surface as a decode error,
// never as a panic or an out-of-range write. A check also runs while
// encoding, where a live machine passes it; work only decoding needs
// (inserting into a map, moving a cursor) sits behind Decoding.
//
// Decode errors are sticky: after the first underflow or validation
// failure every later read leaves its field as it was, so a State method
// can stream straight through and check Err where a value is used.
type Stream struct {
	enc      Enc
	decoding bool
	blob     []byte // decoding: the bytes read
	off      int    // decoding: bytes consumed
	err      error
}

// NewEncoder returns a stream appending to buf.
func NewEncoder(buf []byte) *Stream { return &Stream{enc: Enc{B: buf}} }

// NewDecoder returns a stream reading b.
func NewDecoder(b []byte) *Stream { return &Stream{decoding: true, blob: b} }

// Decoding reports whether the stream fills fields rather than writing them.
func (s *Stream) Decoding() bool { return s.decoding }

// Bytes returns the encoded buffer.
func (s *Stream) Bytes() []byte { return s.enc.B }

// Err reports the first validation failure, or nil.
func (s *Stream) Err() error { return s.err }

// Fail latches a validation failure (no-op if one is already latched).
func (s *Stream) Fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("sim: snapshot decode: "+format, args...)
	}
}

// Remaining reports undecoded bytes.
func (s *Stream) Remaining() int { return len(s.blob) - s.off }

// take consumes the next n decode bytes, or returns nil and fails.
func (s *Stream) take(n int) []byte {
	if s.err != nil {
		return nil
	}
	if n < 0 || s.Remaining() < n {
		s.Fail("truncated: need %d bytes at offset %d of %d", n, s.off, len(s.blob))
		return nil
	}
	s.off += n
	return s.blob[s.off-n : s.off]
}

// U64 streams *p.
func (s *Stream) U64(p *uint64) {
	if !s.decoding {
		s.enc.U64(*p)
	} else if b := s.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// U64s streams each *p in order (a component's counter list).
func (s *Stream) U64s(ps []*uint64) {
	for _, p := range ps {
		s.U64(p)
	}
}

// Int streams *p as a 64-bit integer.
func (s *Stream) Int(p *int) {
	v := uint64(*p)
	if s.U64(&v); s.decoding {
		*p = int(v)
	}
}

// F64 streams *p by bit pattern.
func (s *Stream) F64(p *float64) {
	v := math.Float64bits(*p)
	if s.U64(&v); s.decoding {
		*p = math.Float64frombits(v)
	}
}

// Bool streams *p as one byte.
func (s *Stream) Bool(p *bool) {
	var b [1]byte
	if *p {
		b[0] = 1
	}
	if s.Raw(b[:]); s.decoding {
		*p = b[0] != 0
	}
}

// Raw streams len(b) bytes with no length prefix.
func (s *Stream) Raw(b []byte) {
	if !s.decoding {
		s.enc.B = append(s.enc.B, b...)
	} else if v := s.take(len(b)); v != nil {
		copy(b, v)
	}
}

// Str streams *p with a length prefix.
func (s *Stream) Str(p *string) {
	if !s.decoding {
		s.enc.Str(*p)
		return
	}
	n := len(*p)
	if s.Len(&n, s.Remaining(), "string byte"); s.err == nil {
		*p = string(s.take(n))
	}
}

// Tag streams a fixed section marker (Enc.Tag); decoding fails unless the
// blob holds it.
func (s *Stream) Tag(t string) {
	got := t
	if s.Str(&got); s.err == nil && got != t {
		s.Fail("section tag mismatch: have %q, want %q", got, t)
	}
}

// Len streams a count; decoding fails on one above max.
func (s *Stream) Len(n *int, max int, what string) {
	if s.Int(n); s.decoding && (*n < 0 || *n > max) {
		s.Fail("%s count %d exceeds limit %d", what, uint64(*n), max)
		*n = 0
	}
}

// Match streams v, a value the restoring machine must share with the
// snapshot (an id or a geometry): decoding fails with "what mismatch"
// unless the blob holds v. It reports whether the stream is still good.
func (s *Stream) Match(v int, what string) bool {
	got := v
	if s.Int(&got); s.err == nil && got != v {
		s.Fail("%s mismatch: snapshot %d, machine %d", what, got, v)
	}
	return s.err == nil
}

// U32As streams an integer type as a U32 field. Decoding fails on a value
// the type cannot hold.
func U32As[T ~uint8 | ~uint32](s *Stream, p *T) {
	if !s.decoding {
		s.enc.U32(uint32(*p))
	} else if b := s.take(4); b != nil {
		v := binary.LittleEndian.Uint32(b)
		if uint32(T(v)) != v {
			s.Fail("value %d overflows its field", v)
		}
		*p = T(v)
	}
}

// U64As streams an integer type as a U64 field (two's complement for
// signed types). Decoding fails on a value the type cannot hold.
func U64As[T ~int | ~uint32 | ~uint64](s *Stream, p *T) {
	v := uint64(*p)
	if s.U64(&v); s.decoding {
		if uint64(T(v)) != v {
			s.Fail("value %d overflows its field", v)
		}
		*p = T(v)
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
