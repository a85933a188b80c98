package network

import (
	"testing"
)

// FuzzPacketRing drives a packetRing through arbitrary push/pop sequences
// (the low bits of each op byte choose the action) against a plain-slice
// reference queue, checking FIFO order, length accounting and wraparound
// behaviour. Capacities are taken from the seed byte the way the fabric
// sizes rings from Config (rounded up to a power of two).
func FuzzPacketRing(f *testing.F) {
	f.Add(uint8(8), []byte{0, 0, 1, 0, 1, 1})
	f.Add(uint8(1), []byte{0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(uint8(16), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1})
	f.Add(uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		capInt := int(capacity%64) + 1
		r := newPacketRing(capInt)
		ringCap := int(r.mask) + 1
		if ringCap < capInt || ringCap&(ringCap-1) != 0 {
			t.Fatalf("capacity %d not rounded to a power of two >= request", ringCap)
		}
		var ref []Packet
		next := uint64(1)
		for _, op := range ops {
			switch {
			case op&1 == 0 && len(ref) < ringCap:
				p := NewPacket(MemReadReq, 0, 1)
				p.Tag = next
				next++
				r.push(&p)
				ref = append(ref, p)
			case op&1 == 1 && len(ref) > 0:
				if got, want := r.peek().Tag, ref[0].Tag; got != want {
					t.Fatalf("pop would return tag %d, want %d", got, want)
				}
				r.pop()
				ref = ref[1:]
			}
			if r.len() != len(ref) {
				t.Fatalf("len %d, want %d", r.len(), len(ref))
			}
			if len(ref) > 0 && *r.peek() != ref[0] {
				t.Fatalf("peek tag %d, want %d", r.peek().Tag, ref[0].Tag)
			}
		}
	})
}

// FuzzArrivalWheel drives the calendar queue through arbitrary push/drain
// sequences, checking that every arrival lands in exactly the bucket of its
// network cycle and that counts balance.
func FuzzArrivalWheel(f *testing.F) {
	f.Add([]byte{3, 1, 9, 250, 17})
	f.Add([]byte{0, 0, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, deltas []byte) {
		const slots = 32
		w := newArrivalWheel(slots)
		now := uint64(0)
		pending := map[uint64]int{}
		total := 0
		for _, d := range deltas {
			if d < 200 { // push within the wheel horizon
				at := now + 1 + uint64(d%slots)
				if int(at-now) >= len(w.buckets) {
					continue
				}
				w.push(at, arrival{p: Packet{ArriveCycle: at}})
				pending[at]++
				total++
			} else { // advance and drain a few cycles
				for step := 0; step < int(d%7)+1; step++ {
					now++
					b := w.take(now)
					for i := range b {
						if b[i].p.ArriveCycle != now {
							t.Fatalf("bucket %d held arrival for %d", now, b[i].p.ArriveCycle)
						}
					}
					if len(b) != pending[now] {
						t.Fatalf("cycle %d drained %d, want %d", now, len(b), pending[now])
					}
					total -= len(b)
					delete(pending, now)
					w.putBack(now, b)
				}
			}
			if w.len() != total {
				t.Fatalf("wheel count %d, want %d", w.len(), total)
			}
		}
	})
}
