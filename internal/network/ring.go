package network

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// packetRing is a fixed-capacity FIFO of packet values backed by a
// power-of-two ring, replacing the append/copy churn of a slice queue: push
// and pop are O(1) index arithmetic and the backing array never grows.
// Capacity is sized from the fabric Config (QueueDepth for input queues,
// InjDepth for injection queues) whose admission checks and credit
// accounting guarantee the ring can never overflow; push panics if that
// invariant is ever broken. The backing array is allocated on the first
// push: most (port, VC) queues of a fabric never hold a packet, and
// allocating every ring up front costs the Fig 5.1a suite about 21 MB
// more (BenchmarkFig51a).
type packetRing struct {
	buf  []Packet
	mask uint32
	head uint32
	tail uint32
}

// newPacketRing returns an empty ring for at least capacity packets.
func newPacketRing(capacity int) packetRing {
	return packetRing{mask: uint32(ceilPow2(capacity) - 1)}
}

func (r *packetRing) len() int { return int(r.tail - r.head) }

// peek returns the head packet in place, valid until the next push.
func (r *packetRing) peek() *Packet { return &r.buf[r.head&r.mask] }

// push copies *p in at the tail.
//
//ar:hotpath
func (r *packetRing) push(p *Packet) {
	if r.buf == nil {
		r.buf = make([]Packet, r.mask+1) //ar:exempt(hotpath) one backing array per queue that ever holds a packet, allocated once
	}
	if r.tail-r.head > r.mask {
		panic("network: packet ring overflow (queue admission invariant broken)")
	}
	r.buf[r.tail&r.mask] = *p
	r.tail++
}

// pop drops the head packet. Packets hold no pointers, so the vacated slot
// needs no clearing.
//
//ar:hotpath
func (r *packetRing) pop() {
	if r.head == r.tail {
		panic("network: pop from empty packet ring")
	}
	r.head++
}
