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
