package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// L2Config sizes one S-NUCA L2 bank (Table 4.1: 16 MB, 16-way over 16
// banks). Experiments scale SizeBytes together with workload inputs.
type L2Config struct {
	BankSizeBytes int
	Ways          int
	HitLat        uint64
	InQDepth      int
	MaxTxns       int
}

// DefaultL2Config returns the Table 4.1 L2 bank (1 MB per bank).
func DefaultL2Config() L2Config {
	return L2Config{BankSizeBytes: 1 << 20, Ways: 16, HitLat: 12, InQDepth: 16, MaxTxns: 16}
}

// l2Line is a cache line plus its directory entry.
type l2Line struct {
	tag     mem.PAddr
	valid   bool
	dirty   bool
	sharers uint64 // bitmask over cores
	owner   int    // exclusive owner core, -1 if none
	lru     uint64
}

func (ln *l2Line) cached() bool { return ln.sharers != 0 || ln.owner >= 0 }

// txnKind discriminates directory transactions.
type txnKind uint8

const (
	txGetS txnKind = iota
	txGetX
	txBackInval
)

// txn is one in-flight directory transaction; one per block at a time,
// later requests for the block queue behind it.
type txn struct {
	kind      txnKind
	block     mem.PAddr
	requester int
	waitAcks  int
	waitFetch bool
	needFill  bool
	filled    bool
	dirtyIn   bool
	excl      bool // grant pending as exclusive (E/M)
	queued    []Msg
	memTag    uint64
}

// l2EventKind discriminates the bank's timed events; a typed event record
// replaces the historical per-transaction closure.
type l2EventKind uint8

const (
	evGrant     l2EventKind = iota // directory latency elapsed: send MsgData, finish
	evBackInval                    // back-inval lookup latency elapsed: ack, finish
	evInstall                      // retry installing a fetched block
)

// l2Event is one pending timed action on a transaction.
type l2Event struct {
	kind l2EventKind
	t    *txn
}

// MemPort is the bank's path to main memory (wired by the system to an MC
// tile over the NoC). Every call consumes a tag, refused or not; an
// accepted access completes when the system hands its tag to MemDone.
type MemPort func(block mem.PAddr, write bool) (tag uint64, ok bool)

// memOp is one memory access: a fill for t, or a write when t is nil.
type memOp struct {
	block mem.PAddr
	t     *txn
}

// L2Bank is one bank of the shared S-NUCA L2 with an inclusive MESI
// directory.
type L2Bank struct {
	ID    int // bank id == tile id
	cores int // cores the directory tracks; sharer bits and owners lie below
	cfg   L2Config
	sets  int

	lines [][]l2Line
	lruTk uint64

	busy map[mem.PAddr]*txn
	// setBusy counts the busy transactions per set, so a victim search
	// in a set with no other transaction skips the busy lookups.
	setBusy []int32
	txnFree []*txn // recycled transactions (queued arrays retained)
	send    Sender
	mem     MemPort

	inQ     sim.FIFO[Msg]
	outbox  sim.FIFO[outMsg]
	calls   sim.Timers[l2Event]
	memQ    []memOp         // refused memory ops awaiting port space, in issue order
	memWait map[uint64]*txn // outstanding memory accesses by tag (nil: a write)

	// waker invalidates the engine's cached idle hint on external input
	// (Deliver) and whenever work is queued outside Tick (after, post and
	// memAccess also run inside MemDone).
	waker *sim.Waker

	Stats Stats
}

// NewL2Bank builds bank id with a directory over cores cores (at most 64,
// the width of a sharer mask). send posts NoC messages; memPort accesses
// main memory.
func NewL2Bank(id, cores int, cfg L2Config, send Sender, memPort MemPort) *L2Bank {
	if cores <= 0 || cores > 64 {
		panic(fmt.Sprintf("cache: L2 directory over %d cores, want 1..64", cores))
	}
	sets := cfg.BankSizeBytes / mem.BlockSize / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: L2 set count %d must be a positive power of two", sets))
	}
	b := &L2Bank{
		ID:      id,
		cores:   cores,
		cfg:     cfg,
		sets:    sets,
		lines:   make([][]l2Line, sets),
		busy:    make(map[mem.PAddr]*txn),
		setBusy: make([]int32, sets),
		memWait: make(map[uint64]*txn),
		send:    send,
		mem:     memPort,
	}
	for i := range b.lines {
		b.lines[i] = make([]l2Line, cfg.Ways)
		for j := range b.lines[i] {
			b.lines[i][j].owner = -1
		}
	}
	return b
}

// SetWaker implements sim.Component.
func (b *L2Bank) SetWaker(w *sim.Waker) { b.waker = w }

// BankOf maps a block to its home bank among nbanks (S-NUCA block
// interleave).
func BankOf(block mem.PAddr, nbanks int) int {
	return int(uint64(block)>>6) % nbanks
}

func (b *L2Bank) setOf(block mem.PAddr) int {
	return int(uint64(block)>>6) & (b.sets - 1)
}

func (b *L2Bank) find(block mem.PAddr) *l2Line {
	set := b.lines[b.setOf(block)]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return &set[i]
		}
	}
	return nil
}

// Busy reports in-flight work, outstanding memory accesses included.
func (b *L2Bank) Busy() bool {
	return len(b.busy) > 0 || b.inQ.Len() > 0 || b.outbox.Len() > 0 ||
		b.calls.Len() > 0 || len(b.memQ) > 0 || len(b.memWait) > 0
}

// Deliver accepts a NoC message; false refuses it.
func (b *L2Bank) Deliver(m Msg, cycle uint64) bool {
	if b.inQ.Len() >= b.cfg.InQDepth {
		return false
	}
	b.inQ.Push(m)
	b.waker.Wake()
	return true
}

// NextWork implements sim.Component: the bank needs its Tick while it has
// queued sends, deferred memory ops or delivered messages, and otherwise
// at its earliest timed event. Transactions blocked on acks/fetches/fills
// advance through Deliver and MemDone, not through Tick.
func (b *L2Bank) NextWork(now uint64) uint64 {
	if b.outbox.Len() > 0 || len(b.memQ) > 0 || b.inQ.Len() > 0 {
		return now
	}
	return b.calls.Next(now)
}

// Tick processes queued messages, retries sends and fires completions.
//
//ar:hotpath
func (b *L2Bank) Tick(cycle uint64) {
	for b.outbox.Len() > 0 {
		o := b.outbox.Peek()
		if !b.send(o.dst, o.m) {
			break
		}
		b.outbox.Pop()
	}
	if len(b.memQ) > 0 {
		kept := b.memQ[:0]
		for _, op := range b.memQ {
			if !b.tryMem(op) {
				kept = append(kept, op) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
			}
		}
		b.memQ = kept
	}
	b.calls.Fire(cycle, b.fire)
	for n := 0; n < 4 && b.inQ.Len() > 0; n++ {
		b.handle(b.inQ.Pop(), cycle)
	}
}

// post sends m from this bank, stamping From, and queues it for retry when
// the NoC refuses it.
func (b *L2Bank) post(dst int, m Msg) {
	m.From = b.ID
	if !b.send(dst, m) {
		b.outbox.Push(outMsg{dst: dst, m: m})
		b.waker.Wake()
	}
}

func (b *L2Bank) after(at uint64, kind l2EventKind, t *txn) {
	b.calls.Add(at, l2Event{kind: kind, t: t})
	b.waker.Wake()
}

// fire executes one due event. Transaction fields are read before finish()
// recycles the record.
func (b *L2Bank) fire(ev l2Event, now uint64) {
	t := ev.t
	switch ev.kind {
	case evGrant:
		b.post(t.requester, Msg{Type: MsgData, Block: t.block, Excl: t.excl})
		b.finish(t, now)
	case evBackInval:
		requester, block, memTag := t.requester, t.block, t.memTag
		b.finish(t, now)
		b.post(requester, Msg{Type: MsgBackInvalD, Block: block, Tag: memTag})
	case evInstall:
		b.install(t, now)
	}
}

// memAccess issues a fill for t, or a write of block when t is nil,
// queueing it for retry while the port refuses.
func (b *L2Bank) memAccess(block mem.PAddr, t *txn) {
	if op := (memOp{block, t}); !b.tryMem(op) {
		b.memQ = append(b.memQ, op) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
		b.waker.Wake()
	}
}

// tryMem offers op to the memory port, recording its tag when accepted.
func (b *L2Bank) tryMem(op memOp) bool {
	tag, ok := b.mem(op.block, op.t == nil)
	if ok {
		b.memWait[tag] = op.t
	}
	return ok
}

// MemDone completes the outstanding memory access tag at cycle now: a
// fill installs its block; a write has nothing left to do.
//
//ar:hotpath
func (b *L2Bank) MemDone(tag uint64, now uint64) {
	t, ok := b.memWait[tag]
	if !ok {
		panic(fmt.Sprintf("cache: L2 bank %d memory response with unknown tag %d", b.ID, tag))
	}
	delete(b.memWait, tag)
	if t != nil {
		b.install(t, now)
	}
}

// handle consumes one delivered message. A request for a block with a busy
// transaction queues behind it, and finish() replays it in arrival order.
func (b *L2Bank) handle(m Msg, cycle uint64) {
	switch m.Type {
	case MsgGetS, MsgGetX, MsgBackInvalQ:
		if t, ok := b.busy[m.Block]; ok {
			t.queued = append(t.queued, m) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
			return
		}
		b.start(m, cycle)
	case MsgPutM:
		b.Stats.L2Accesses++
		if line := b.find(m.Block); line != nil {
			line.dirty = true
			if line.owner == m.From {
				line.owner = -1
			}
		} else {
			// Already victimized: write straight through to memory.
			b.memAccess(m.Block, nil)
			b.Stats.MemWrites++
		}
	case MsgInvAck:
		if t, ok := b.busy[m.Block]; ok && t.waitAcks > 0 {
			t.waitAcks--
			b.advance(t, cycle)
		}
	case MsgFetchResp:
		if t, ok := b.busy[m.Block]; ok && t.waitFetch {
			t.waitFetch = false
			t.dirtyIn = t.dirtyIn || m.Dirty
			b.advance(t, cycle)
		}
	default:
		panic(fmt.Sprintf("cache: L2 bank %d cannot handle %s", b.ID, m.Type))
	}
}

// getTxn returns a recycled (or fresh) transaction with retained queued
// capacity.
func (b *L2Bank) getTxn() *txn {
	if n := len(b.txnFree); n > 0 {
		t := b.txnFree[n-1]
		b.txnFree = b.txnFree[:n-1]
		return t
	}
	return &txn{} //ar:exempt(hotpath) pool slow path: allocates only when the free list is empty, cold after warm-up
}

// start opens a directory transaction for a request message.
func (b *L2Bank) start(m Msg, cycle uint64) {
	b.Stats.L2Accesses++
	t := b.getTxn()
	t.block, t.requester = m.Block, m.From
	switch m.Type {
	case MsgGetS:
		t.kind = txGetS
	case MsgGetX:
		t.kind = txGetX
	case MsgBackInvalQ:
		t.kind = txBackInval
		t.memTag = m.Tag
		b.Stats.BackInvalQ++
	}
	b.busy[m.Block] = t
	b.setBusy[b.setOf(m.Block)]++

	line := b.find(m.Block)
	if t.kind == txBackInval {
		if line == nil || !line.cached() {
			// The common case (§3.4.2): nothing cached on chip, the
			// offload proceeds after the directory lookup latency.
			if line != nil && line.dirty {
				// The block itself is dirty in L2: flush it so near-data
				// processing observes fresh memory.
				line.valid = false
				b.Stats.MemWrites++
				b.memAccess(m.Block, nil)
			} else if line != nil {
				line.valid = false
			}
			b.after(cycle+b.cfg.HitLat, evBackInval, t)
			return
		}
		b.Stats.BackInvalHit++
		b.collectExclusive(t, line, -1)
		return
	}

	if line == nil {
		// Fill from memory; MemDone installs the block, evicting a victim.
		b.Stats.L2Misses++
		b.Stats.MemReads++
		t.needFill = true
		b.memAccess(t.block, t)
		return
	}
	b.Stats.L2Hits++
	if t.kind == txGetS {
		if line.owner >= 0 && line.owner != t.requester {
			t.waitFetch = true
			b.Stats.Fetches++
			b.post(line.owner, Msg{Type: MsgFetch, Block: t.block})
			// The owner downgrades to S and becomes a plain sharer.
			line.sharers |= 1 << uint(line.owner)
			line.owner = -1
			return
		}
		b.grantS(t, line, cycle)
		return
	}
	// GetX on a present line: collect exclusivity.
	b.collectExclusive(t, line, t.requester)
	if t.waitAcks == 0 && !t.waitFetch {
		b.grantX(t, line, cycle)
	}
}

// collectExclusive invalidates every cached copy except keep (-1 to purge
// all), arming the transaction's ack/fetch counters.
func (b *L2Bank) collectExclusive(t *txn, line *l2Line, keep int) {
	for c := 0; c < 64; c++ {
		if line.sharers&(1<<uint(c)) == 0 || c == keep {
			continue
		}
		t.waitAcks++
		b.Stats.Invals++
		b.post(c, Msg{Type: MsgInval, Block: t.block})
	}
	line.sharers &= 1 << uint(max(keep, 0))
	if keep < 0 {
		line.sharers = 0
	}
	if line.owner >= 0 && line.owner != keep {
		t.waitFetch = true
		b.Stats.Fetches++
		b.post(line.owner, Msg{Type: MsgFetchInv, Block: t.block})
		line.owner = -1
	}
}

// advance re-checks a transaction blocked on acks/fetches/fills.
func (b *L2Bank) advance(t *txn, cycle uint64) {
	if t.waitAcks > 0 || t.waitFetch {
		return
	}
	if t.needFill && !t.filled {
		return
	}
	line := b.find(t.block)
	switch t.kind {
	case txGetS:
		if line == nil {
			panic("cache: GetS transaction lost its line")
		}
		if t.dirtyIn {
			line.dirty = true
		}
		b.grantS(t, line, cycle)
	case txGetX:
		if line == nil {
			panic("cache: GetX transaction lost its line")
		}
		if t.dirtyIn {
			line.dirty = true
		}
		b.grantX(t, line, cycle)
	case txBackInval:
		dirty := t.dirtyIn
		if line != nil {
			dirty = dirty || line.dirty
			line.valid = false
		}
		if dirty {
			b.Stats.MemWrites++
			b.memAccess(t.block, nil)
		}
		b.fire(l2Event{kind: evBackInval, t: t}, cycle)
	}
}

// install places the fetched block, retrying next cycle when every way of
// the set is held by an in-flight transaction (victimizing a busy line
// would strand its transaction).
func (b *L2Bank) install(t *txn, now uint64) {
	line := b.installVictim(t.block)
	if line == nil {
		b.after(now+1, evInstall, t)
		return
	}
	line.tag = t.block
	line.valid = true
	line.dirty = false
	line.sharers = 0
	line.owner = -1
	t.filled = true
	b.advance(t, now)
}

// installVictim frees a way for a new block (inclusive back-invalidation of
// L1 copies, dirty writeback to memory). It returns nil when every way is
// held by an in-flight transaction.
func (b *L2Bank) installVictim(block mem.PAddr) *l2Line {
	// The installing transaction is busy in this set itself, without a
	// valid way, so only a count above one can mark a valid way busy.
	others := b.setBusy[b.setOf(block)] > 1
	set := b.lines[b.setOf(block)]
	var v *l2Line
	for i := range set {
		ln := &set[i]
		if !ln.valid {
			return ln
		}
		if others {
			if _, busy := b.busy[ln.tag]; busy {
				continue
			}
		}
		if v == nil || ln.lru < v.lru {
			v = ln
		}
	}
	if v == nil {
		return nil // every way busy: caller retries
	}
	b.Stats.L2Evictions++
	for c := 0; c < 64; c++ {
		if v.sharers&(1<<uint(c)) != 0 {
			b.Stats.Invals++
			b.post(c, Msg{Type: MsgInval, Block: v.tag})
		}
	}
	if v.owner >= 0 {
		b.Stats.Invals++
		b.post(v.owner, Msg{Type: MsgFetchInv, Block: v.tag})
	}
	if v.dirty || v.owner >= 0 {
		b.Stats.MemWrites++
		b.memAccess(v.tag, nil)
	}
	v.valid = false
	v.sharers = 0
	v.owner = -1
	return v
}

// grantS completes a read: requester becomes a sharer (or the exclusive
// owner when it is alone, the E optimization of MESI).
func (b *L2Bank) grantS(t *txn, line *l2Line, cycle uint64) {
	b.lruTk++
	line.lru = b.lruTk
	excl := (line.sharers == 0 && line.owner < 0) || line.owner == t.requester
	if excl {
		line.owner = t.requester
	} else {
		line.sharers |= 1 << uint(t.requester)
	}
	t.excl = excl
	b.after(cycle+b.cfg.HitLat, evGrant, t)
}

// grantX completes a write: requester becomes the sole owner.
func (b *L2Bank) grantX(t *txn, line *l2Line, cycle uint64) {
	b.lruTk++
	line.lru = b.lruTk
	line.sharers = 0
	line.owner = t.requester
	t.excl = true
	b.after(cycle+b.cfg.HitLat, evGrant, t)
}

// finish closes the transaction, replays requests that queued behind it,
// and recycles the transaction record.
func (b *L2Bank) finish(t *txn, cycle uint64) {
	delete(b.busy, t.block)
	b.setBusy[b.setOf(t.block)]--
	for _, q := range t.queued {
		b.handle(q, cycle)
	}
	*t = txn{queued: t.queued[:0]}
	b.txnFree = append(b.txnFree, t) //ar:exempt(hotpath) free list reaches steady-state capacity; append stops growing after warm-up
}
