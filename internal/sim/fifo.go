package sim

// FIFO is a slice-backed queue drained by head index instead of re-slicing,
// so the backing array's capacity is reused forever: after warm-up, a
// steady-state push/pop workload never calls growslice. Popped slots are
// zeroed so the queue never pins dead references.
//
// It exists for the simulator's many small component queues (input queues,
// outboxes, command queues) whose historical `q = append(q, x)` /
// `q = q[1:]` pattern lost the freed capacity on the left and re-grew the
// slice perpetually.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len reports the queued element count.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Empty reports whether no elements are queued.
func (q *FIFO[T]) Empty() bool { return q.head == len(q.buf) }

// Push appends v.
//
//ar:hotpath
func (q *FIFO[T]) Push(v T) {
	// Reclaim the drained prefix before growing past capacity: slide the
	// live elements down instead of allocating a bigger array.
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		var zero T
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = zero
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v) //ar:exempt(hotpath) ring growth doubles capacity; amortized O(1) and flat at steady state
}

// Peek returns the oldest element; it panics on an empty queue.
func (q *FIFO[T]) Peek() T { return q.buf[q.head] }

// At returns the i-th oldest element (0 = head).
func (q *FIFO[T]) At(i int) T { return q.buf[q.head+i] }

// PtrAt returns a pointer to the i-th oldest element for in-place updates.
func (q *FIFO[T]) PtrAt(i int) *T { return &q.buf[q.head+i] }

// Pop removes and returns the oldest element; it panics on an empty queue.
//
//ar:hotpath
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// chunkLen is ChunkFIFO's chunk size in elements.
const chunkLen = 256

// ChunkFIFO is a queue stored in fixed-size chunks, for queues that are
// unbounded by design and can hold tens of thousands of entries. Its
// memory follows occupancy: growth adds one chunk at a time and never
// copies, and a drained chunk becomes the single spare. A FIFO's one array
// would copy itself at every growth step and keep its peak capacity.
type ChunkFIFO[T any] struct {
	c     []*[chunkLen]T
	head  int // position of the oldest element in c[0]
	n     int
	spare *[chunkLen]T
}

// Len reports the queued element count.
func (q *ChunkFIFO[T]) Len() int { return q.n }

// Push appends v.
//
//ar:hotpath
func (q *ChunkFIFO[T]) Push(v T) {
	pos := q.head + q.n
	if pos/chunkLen == len(q.c) {
		if q.spare == nil {
			q.spare = new([chunkLen]T) //ar:exempt(hotpath) one chunk per 256 elements of new peak occupancy
		}
		q.c = append(q.c, q.spare) //ar:exempt(hotpath) the chunk index grows only with peak occupancy
		q.spare = nil
	}
	q.c[pos/chunkLen][pos%chunkLen] = v
	q.n++
}

// Peek returns the oldest element, valid until the next Pop; it panics on
// an empty queue.
func (q *ChunkFIFO[T]) Peek() *T {
	if q.n == 0 {
		panic("sim: Peek on empty ChunkFIFO")
	}
	return &q.c[0][q.head]
}

// Pop removes the oldest element; it panics on an empty queue.
//
//ar:hotpath
func (q *ChunkFIFO[T]) Pop() {
	if q.n == 0 {
		panic("sim: Pop on empty ChunkFIFO")
	}
	var zero T
	q.c[0][q.head] = zero
	q.head++
	q.n--
	switch {
	case q.n == 0:
		q.head = 0 // refill the front chunk from its start
	case q.head == chunkLen:
		q.spare = q.c[0]
		n := copy(q.c, q.c[1:])
		q.c[n] = nil
		q.c, q.head = q.c[:n], 0
	}
}
