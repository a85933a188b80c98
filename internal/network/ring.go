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

// arrivalWheel is a calendar queue of in-flight arrivals bucketed by
// network-cycle. Wire latency is bounded (serialization of the largest
// packet + link latency + router delay), so a power-of-two wheel at least
// that long never wraps onto live entries: pushing is an append into the
// target cycle's bucket and landing drains exactly one bucket wholesale —
// no per-cycle compaction or scan of not-yet-ready arrivals. Bucket slices
// retain their capacity, so the steady state allocates nothing.
//
// Same-queue arrivals are time-ordered by link serialization, and landing
// order across distinct input queues is commutative, so draining buckets in
// time order is bit-identical to the historical single-list scan.
type arrivalWheel struct {
	buckets [][]arrival
	mask    uint64 // len(buckets)-1
	count   int
}

func newArrivalWheel(slots int) arrivalWheel {
	n := ceilPow2(slots)
	return arrivalWheel{buckets: make([][]arrival, n), mask: uint64(n - 1)}
}

func (w *arrivalWheel) len() int { return w.count }

// push files a at its arrival network-cycle. netCycle must be within one
// wheel revolution of the current cycle (the fabric sizes the wheel from
// the worst-case wire latency and panics otherwise via the landing check).
//
//ar:hotpath
func (w *arrivalWheel) push(netCycle uint64, a arrival) {
	w.buckets[netCycle&w.mask] = append(w.buckets[netCycle&w.mask], a) //ar:exempt(hotpath) wheel bucket retains its capacity across laps; growth is amortized to the high-water mark
	w.count++
}

// take removes and returns the bucket for netCycle; the caller must recycle
// it via putBack after draining.
//
//ar:hotpath
func (w *arrivalWheel) take(netCycle uint64) []arrival {
	b := w.buckets[netCycle&w.mask]
	w.buckets[netCycle&w.mask] = nil
	w.count -= len(b)
	return b
}

// putBack returns a drained bucket's storage to its slot for reuse, unless
// a push during draining already started a new bucket there.
//
//ar:hotpath
func (w *arrivalWheel) putBack(netCycle uint64, b []arrival) {
	if w.buckets[netCycle&w.mask] == nil {
		w.buckets[netCycle&w.mask] = b[:0]
	}
}
