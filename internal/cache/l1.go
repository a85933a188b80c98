package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// lineState is the MESI state of an L1 line.
type lineState uint8

const (
	stInv lineState = iota
	stShared
	stExcl
	stMod
)

// L1Config sizes a private L1 data cache (Table 4.1: 16 KB, 4-way).
type L1Config struct {
	SizeBytes int
	Ways      int
	HitLat    uint64
	MSHRs     int
	InQDepth  int
}

// DefaultL1Config returns the Table 4.1 L1.
func DefaultL1Config() L1Config {
	return L1Config{SizeBytes: 16 << 10, Ways: 4, HitLat: 2, MSHRs: 8, InQDepth: 8}
}

type l1Line struct {
	tag   mem.PAddr
	state lineState
	lru   uint64
}

type l1MSHR struct {
	block   mem.PAddr
	write   bool
	sent    bool
	waiters []uint64 // tokens of the accesses coalesced into the miss
}

type outMsg struct {
	dst int
	m   Msg
}

// L1 is one core's private data cache.
type L1 struct {
	ID  int // core id == tile id
	cfg L1Config

	sets    int
	lines   [][]l1Line
	lruTick uint64

	// mshrs holds the live miss entries. The capacity is cfg.MSHRs (8 in
	// the evaluation machine), so a linear scan beats a map on both lookup
	// and allocation.
	mshrs    []*l1MSHR
	unsent   []*l1MSHR // misses whose request the NoC refused, in FIFO order
	mshrFree []*l1MSHR // recycled MSHR entries (waiters arrays retained)
	send     Sender
	homeBank func(block mem.PAddr) int
	// done receives each accepted access's token once, at the cycle the
	// access completes.
	done func(token uint64)
	// ready is called whenever a fill frees an MSHR, the only event that
	// can turn a refused Access into an accepted one.
	ready func()

	inQ    sim.FIFO[Msg]
	outbox sim.FIFO[outMsg]
	calls  sim.Timers[uint64] // access tokens completing at a cycle

	// waker invalidates the engine's cached idle hint on external input
	// (Access from the core, Deliver from the NoC).
	waker *sim.Waker

	Stats Stats
}

// NewL1 builds an L1 for core id. send injects messages into the NoC;
// homeBank maps a block to its S-NUCA L2 bank tile; done is the completion
// hook that receives each access's token; ready is called whenever a fill
// frees an MSHR, so a core refused by Access can wait for it.
func NewL1(id int, cfg L1Config, send Sender, homeBank func(mem.PAddr) int, done func(token uint64), ready func()) *L1 {
	sets := cfg.SizeBytes / mem.BlockSize / cfg.Ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: L1 set count %d must be a positive power of two", sets))
	}
	l := &L1{
		ID:       id,
		cfg:      cfg,
		sets:     sets,
		lines:    make([][]l1Line, sets),
		send:     send,
		homeBank: homeBank,
		done:     done,
		ready:    ready,
	}
	for i := range l.lines {
		l.lines[i] = make([]l1Line, cfg.Ways)
	}
	return l
}

func (l *L1) setOf(block mem.PAddr) int {
	return int(uint64(block)>>6) & (l.sets - 1)
}

func (l *L1) find(block mem.PAddr) *l1Line {
	set := l.lines[l.setOf(block)]
	for i := range set {
		if set[i].state != stInv && set[i].tag == block {
			return &set[i]
		}
	}
	return nil
}

// SetWaker implements sim.Component.
func (l *L1) SetWaker(w *sim.Waker) { l.waker = w }

// findMSHR returns the live miss entry for block, or nil.
func (l *L1) findMSHR(block mem.PAddr) *l1MSHR {
	for _, ms := range l.mshrs {
		if ms.block == block {
			return ms
		}
	}
	return nil
}

// Busy reports whether any miss, queued message or pending send remains.
func (l *L1) Busy() bool {
	return len(l.mshrs) > 0 || l.inQ.Len() > 0 || l.outbox.Len() > 0 || l.calls.Len() > 0
}

// Access performs a load (write=false) or store (write=true) at addr; the
// done hook receives token when the access completes. It reports false when
// the access cannot be accepted this cycle (MSHR pressure); the core
// retries.
func (l *L1) Access(addr mem.PAddr, write bool, cycle uint64, token uint64) bool {
	l.waker.Wake()
	block := mem.BlockAlign(addr)
	if ms := l.findMSHR(block); ms != nil {
		// Coalesce reads into any outstanding miss and writes into write
		// misses; a write behind a read miss waits for the fill.
		if write && !ms.write {
			return false
		}
		ms.waiters = append(ms.waiters, token)
		l.Stats.L1Accesses++
		return true
	}
	line := l.find(block)
	if line != nil {
		writable := line.state == stExcl || line.state == stMod
		if !write || writable {
			l.Stats.L1Accesses++
			l.Stats.L1Hits++
			if write {
				line.state = stMod
			}
			l.touch(line)
			l.calls.Add(cycle+l.cfg.HitLat, token)
			return true
		}
		// Store to a Shared line: upgrade via GetX. The line stays S until
		// the exclusive grant arrives.
	}
	if len(l.mshrs) >= l.cfg.MSHRs {
		return false
	}
	l.Stats.L1Accesses++
	l.Stats.L1Misses++
	ms := l.getMSHR()
	ms.block, ms.write = block, write
	ms.waiters = append(ms.waiters, token)
	l.mshrs = append(l.mshrs, ms)
	l.trySendMiss(ms)
	if !ms.sent {
		l.unsent = append(l.unsent, ms)
	}
	return true
}

// getMSHR returns a recycled (or fresh) MSHR entry with retained waiters
// capacity; releaseMSHR returns it after the fill completes.
func (l *L1) getMSHR() *l1MSHR {
	if n := len(l.mshrFree); n > 0 {
		ms := l.mshrFree[n-1]
		l.mshrFree = l.mshrFree[:n-1]
		return ms
	}
	return &l1MSHR{}
}

func (l *L1) releaseMSHR(ms *l1MSHR) {
	ms.waiters = ms.waiters[:0]
	ms.sent = false
	l.mshrFree = append(l.mshrFree, ms) //ar:exempt(hotpath) free list reaches steady-state capacity; append stops growing after warm-up
}

func (l *L1) trySendMiss(ms *l1MSHR) {
	t := MsgGetS
	if ms.write {
		t = MsgGetX
	}
	if l.send(l.homeBank(ms.block), Msg{Type: t, Block: ms.block, From: l.ID}) {
		ms.sent = true
	}
}

func (l *L1) touch(line *l1Line) {
	l.lruTick++
	line.lru = l.lruTick
}

// complete hands a timed completion's token to the done hook.
func (l *L1) complete(token, _ uint64) { l.done(token) }

func (l *L1) post(dst int, m Msg) {
	if !l.send(dst, m) {
		l.outbox.Push(outMsg{dst: dst, m: m})
	}
}

// Deliver accepts a coherence message from the NoC; false refuses it
// (bounded input queue).
func (l *L1) Deliver(m Msg, cycle uint64) bool {
	if l.inQ.Len() >= l.cfg.InQDepth {
		return false
	}
	l.inQ.Push(m)
	l.waker.Wake()
	return true
}

// NextWork implements sim.Component: the L1 needs its Tick while it holds
// an unsent miss, a queued send or a delivered message, and otherwise at
// its earliest timed completion. Waiting on an outstanding (sent) miss is
// quiescent — the fill arrives via Deliver.
func (l *L1) NextWork(now uint64) uint64 {
	if len(l.unsent) > 0 || l.outbox.Len() > 0 || l.inQ.Len() > 0 {
		return now
	}
	return l.calls.Next(now)
}

// Tick advances the cache: retries sends, fires timed completions and
// processes delivered messages.
//
//ar:hotpath
func (l *L1) Tick(cycle uint64) {
	// Retry unsent miss requests, oldest first.
	if len(l.unsent) > 0 {
		kept := l.unsent[:0]
		for _, ms := range l.unsent {
			l.trySendMiss(ms)
			if !ms.sent {
				kept = append(kept, ms) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
			}
		}
		l.unsent = kept
	}
	// Retry outbox.
	for l.outbox.Len() > 0 {
		o := l.outbox.Peek()
		if !l.send(o.dst, o.m) {
			break
		}
		l.outbox.Pop()
	}
	// Fire completions.
	l.calls.Fire(cycle, l.complete)
	// Process messages.
	for n := 0; n < 4 && l.inQ.Len() > 0; n++ {
		l.handle(l.inQ.Pop(), cycle)
	}
}

// handle consumes one delivered message; every case is synchronous.
func (l *L1) handle(m Msg, cycle uint64) {
	switch m.Type {
	case MsgData:
		l.fill(m, cycle)
	case MsgInval:
		if line := l.find(m.Block); line != nil {
			line.state = stInv
		}
		l.post(m.From, Msg{Type: MsgInvAck, Block: m.Block, From: l.ID})
	case MsgFetch:
		dirty := false
		if line := l.find(m.Block); line != nil {
			dirty = line.state == stMod
			line.state = stShared
		}
		l.post(m.From, Msg{Type: MsgFetchResp, Block: m.Block, From: l.ID, Dirty: dirty})
	case MsgFetchInv:
		dirty := false
		if line := l.find(m.Block); line != nil {
			dirty = line.state == stMod
			line.state = stInv
		}
		l.post(m.From, Msg{Type: MsgFetchResp, Block: m.Block, From: l.ID, Dirty: dirty})
	default:
		panic(fmt.Sprintf("cache: L1 %d cannot handle %s", l.ID, m.Type))
	}
}

// fill installs a granted block and wakes the miss's waiters.
func (l *L1) fill(m Msg, cycle uint64) {
	ms := l.findMSHR(m.Block)
	if ms == nil {
		panic(fmt.Sprintf("cache: L1 %d fill for unknown block %#x", l.ID, uint64(m.Block)))
	}
	for i, cand := range l.mshrs {
		if cand == ms {
			last := len(l.mshrs) - 1
			l.mshrs[i] = l.mshrs[last]
			l.mshrs[last] = nil
			l.mshrs = l.mshrs[:last]
			break
		}
	}

	// If this was an S->M upgrade the line is already resident.
	line := l.find(m.Block)
	if line == nil {
		line = l.victim(m.Block)
		line.tag = m.Block
	}
	switch {
	case m.Excl && ms.write:
		line.state = stMod
	case m.Excl:
		line.state = stExcl
	default:
		line.state = stShared
	}
	l.touch(line)
	for _, w := range ms.waiters {
		l.calls.Add(cycle+l.cfg.HitLat, w)
	}
	l.releaseMSHR(ms)
	l.ready()
}

// victim selects (and if needed evicts) a way for a new block.
func (l *L1) victim(block mem.PAddr) *l1Line {
	set := l.lines[l.setOf(block)]
	var v *l1Line
	for i := range set {
		if set[i].state == stInv {
			return &set[i]
		}
		if v == nil || set[i].lru < v.lru {
			v = &set[i]
		}
	}
	l.Stats.L1Evictions++
	if v.state == stMod {
		// Dirty writeback to the L2 home bank.
		l.post(l.homeBank(v.tag), Msg{Type: MsgPutM, Block: v.tag, From: l.ID, Dirty: true})
	}
	v.state = stInv
	return v
}
