package cache

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/network"
)

// harness wires one L1 and one L2 bank directly (no NoC): messages route by
// destination id 0 = L1's core, 100 = the bank.
type harness struct {
	l1   *L1
	l2   *L2Bank
	mem  []uint64 // outstanding memory access tags, in issue order
	mems int      // memory accesses accepted; the count is also the tag
	done []uint64 // completed access tokens, in completion order
	cyc  uint64
}

func newHarness(t *testing.T) *harness {
	h := &harness{}
	l1Send := func(dst int, m Msg) bool {
		if dst != 100 {
			t.Fatalf("L1 sent %s to %d", m.Type, dst)
		}
		return h.l2.Deliver(m, 0)
	}
	l2Send := func(dst int, m Msg) bool {
		return h.l1.Deliver(m, 0)
	}
	memPort := func(mem.PAddr, bool) (uint64, bool) {
		h.mems++
		h.mem = append(h.mem, uint64(h.mems))
		return uint64(h.mems), true
	}
	cfg1 := DefaultL1Config()
	cfg1.SizeBytes = 1 << 10 // 4 sets x 4 ways
	cfg2 := DefaultL2Config()
	cfg2.BankSizeBytes = 4 << 10
	cfg2.Ways = 4
	h.l1 = NewL1(0, cfg1, l1Send, func(mem.PAddr) int { return 100 },
		func(tok uint64) { h.done = append(h.done, tok) }, func() {})
	h.l2 = NewL2Bank(100, 64, cfg2, l2Send, memPort)
	return h
}

// settle ticks both caches, answering memory fetches immediately. The
// clock is monotonic across calls.
func (h *harness) settle(n int) {
	for i := 0; i < n; i++ {
		h.cyc++
		for len(h.mem) > 0 {
			tag := h.mem[0]
			h.mem = h.mem[1:]
			h.l2.MemDone(tag, h.cyc)
		}
		h.l2.Tick(h.cyc)
		h.l1.Tick(h.cyc)
	}
}

func TestL1MissFillsAndHits(t *testing.T) {
	h := newHarness(t)
	if !h.l1.Access(0x1000, false, 0, 1) {
		t.Fatal("access refused")
	}
	h.settle(100)
	if len(h.done) != 1 {
		t.Fatal("miss never completed")
	}
	if h.l1.Stats.L1Misses != 1 || h.l2.Stats.L2Misses != 1 || h.mems != 1 {
		t.Fatalf("stats: l1=%+v l2=%+v", h.l1.Stats, h.l2.Stats)
	}
	// Second access hits in L1 without new messages.
	if !h.l1.Access(0x1008, false, h.cyc, 2) {
		t.Fatal("hit refused")
	}
	h.settle(50)
	if len(h.done) != 2 || h.l1.Stats.L1Hits != 1 {
		t.Fatalf("hit path broken: done=%d stats=%+v", len(h.done), h.l1.Stats)
	}
}

func TestL1CoalescesMisses(t *testing.T) {
	h := newHarness(t)
	h.l1.Access(0x2000, false, 0, 1)
	h.l1.Access(0x2010, false, 0, 2)
	h.settle(100)
	if len(h.done) != 2 || h.done[0] != 1 || h.done[1] != 2 {
		t.Fatalf("coalesced waiters completed tokens %v, want [1 2]", h.done)
	}
	if h.l1.Stats.L1Misses != 1 {
		t.Fatalf("misses = %d, want 1 (coalesced)", h.l1.Stats.L1Misses)
	}
}

func TestWriteGetsExclusive(t *testing.T) {
	h := newHarness(t)
	h.l1.Access(0x3000, true, 0, 1)
	h.settle(100)
	if len(h.done) != 1 {
		t.Fatal("write never completed")
	}
	// Writing again is a silent hit (M state).
	h.l1.Access(0x3000, true, h.cyc, 2)
	h.settle(50)
	if len(h.done) != 2 || h.l1.Stats.L1Hits != 1 {
		t.Fatalf("M-state write hit broken: %+v", h.l1.Stats)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := newHarness(t)
	// Dirty a block, then evict it by filling its set (4 ways + 1).
	h.l1.Access(0x4000, true, 0, 1)
	h.settle(100)
	// Same L1 set: stride = sets(4) * 64 = 256 bytes.
	for i := 1; i <= 4; i++ {
		h.l1.Access(mem.PAddr(0x4000+i*256), false, h.cyc, 2)
		h.settle(100)
	}
	if len(h.done) != 5 {
		t.Fatalf("done = %d", len(h.done))
	}
	if h.l1.Stats.L1Evictions == 0 {
		t.Fatal("no eviction happened")
	}
}

func TestBackInvalMiss(t *testing.T) {
	h := newHarness(t)
	got := false
	h.l2.Deliver(Msg{Type: MsgBackInvalQ, Block: 0x9000, From: 0, Tag: 7}, 0)
	// Intercept the response at the L1 side sender (our harness routes all
	// L2 sends to L1.Deliver; BackInvalD is not an L1 message, so check via
	// a custom sender instead).
	h.l2.send = func(dst int, m Msg) bool {
		if m.Type == MsgBackInvalD && m.Tag == 7 {
			got = true
			return true
		}
		return h.l1.Deliver(m, 0)
	}
	h.settle(50)
	if !got {
		t.Fatal("back-invalidation query never answered")
	}
	if h.l2.Stats.BackInvalQ != 1 || h.l2.Stats.BackInvalHit != 0 {
		t.Fatalf("stats: %+v", h.l2.Stats)
	}
}

func TestBackInvalHitInvalidates(t *testing.T) {
	h := newHarness(t)
	h.l1.Access(0xA000, true, 0, 1) // cached M in L1
	h.settle(100)
	got := false
	h.l2.send = func(dst int, m Msg) bool {
		if m.Type == MsgBackInvalD {
			got = true
			return true
		}
		return h.l1.Deliver(m, 0)
	}
	h.l2.Deliver(Msg{Type: MsgBackInvalQ, Block: 0xA000, From: 0, Tag: 8}, 0)
	h.settle(100)
	if !got {
		t.Fatal("back-invalidation with cached copy never completed")
	}
	if h.l2.Stats.BackInvalHit != 1 {
		t.Fatalf("hit not counted: %+v", h.l2.Stats)
	}
	// The L1 copy must be gone: re-access misses.
	h.l1.Access(0xA000, false, h.cyc, 2)
	h.settle(100)
	if h.l1.Stats.L1Misses != 2 {
		t.Fatalf("L1 copy survived back-invalidation: %+v", h.l1.Stats)
	}
}

func TestBankOfCoversAllBanks(t *testing.T) {
	seen := map[int]bool{}
	for b := 0; b < 64; b++ {
		seen[BankOf(mem.PAddr(b*64), 16)] = true
	}
	if len(seen) != 16 {
		t.Fatalf("block interleave covers %d banks, want 16", len(seen))
	}
}

func TestMsgClassification(t *testing.T) {
	resp := []MsgType{MsgData, MsgInvAck, MsgFetchResp, MsgBackInvalD, MsgMemResp}
	for _, m := range resp {
		if !m.isResponse() {
			t.Fatalf("%s must be a response", m)
		}
	}
	data := []MsgType{MsgData, MsgPutM, MsgFetchResp, MsgMemWrite, MsgMemResp}
	for _, m := range data {
		if !m.carriesData() {
			t.Fatalf("%s must carry a block", m)
		}
	}
	// Every message survives the NoC packet's header fields unchanged, in
	// the right traffic class and with the block counted in the wire size
	// exactly when it carries data.
	for typ := MsgGetS; typ <= MsgMemResp; typ++ {
		for _, excl := range []bool{false, true} {
			for _, dirty := range []bool{false, true} {
				m := Msg{Block: 0x12340, From: 13, Tag: 7<<40 | 99, Type: typ, Excl: excl, Dirty: dirty}
				p := PacketFor(m, 1, 2)
				if got := MsgOf(&p); got != m {
					t.Fatalf("MsgOf(PacketFor(%+v)) = %+v", m, got)
				}
				if (p.Kind == network.HostMsgResp) != typ.isResponse() || (p.Kind != network.HostMsg && p.Kind != network.HostMsgResp) {
					t.Fatalf("%s travels as %s", typ, p.Kind)
				}
				want := network.SizeOf(p.Kind)
				if typ.carriesData() {
					want = network.HeaderBytes + mem.BlockSize
				}
				if int(p.Size) != want {
					t.Fatalf("%s packet is %d bytes, want %d", typ, p.Size, want)
				}
			}
		}
	}
}

// twoL1Harness exercises coherence between two cores.
type twoL1Harness struct {
	l1s  [2]*L1
	l2   *L2Bank
	mem  []uint64 // outstanding memory access tags, in issue order
	tags uint64
	done []uint64 // completed access tokens, in completion order
	cyc  uint64
}

func newTwoL1(t *testing.T) *twoL1Harness {
	h := &twoL1Harness{}
	send := func(dst int, m Msg) bool {
		switch dst {
		case 0, 1:
			return h.l1s[dst].Deliver(m, 0)
		case 100:
			return h.l2.Deliver(m, 0)
		}
		t.Fatalf("message to unknown node %d", dst)
		return false
	}
	memPort := func(mem.PAddr, bool) (uint64, bool) {
		h.tags++
		h.mem = append(h.mem, h.tags)
		return h.tags, true
	}
	cfg1 := DefaultL1Config()
	cfg1.SizeBytes = 1 << 10
	cfg2 := DefaultL2Config()
	cfg2.BankSizeBytes = 4 << 10
	cfg2.Ways = 4
	done := func(tok uint64) { h.done = append(h.done, tok) }
	h.l1s[0] = NewL1(0, cfg1, send, func(mem.PAddr) int { return 100 }, done, func() {})
	h.l1s[1] = NewL1(1, cfg1, send, func(mem.PAddr) int { return 100 }, done, func() {})
	h.l2 = NewL2Bank(100, 64, cfg2, send, memPort)
	return h
}

func (h *twoL1Harness) settle(n int) {
	for i := 0; i < n; i++ {
		h.cyc++
		for len(h.mem) > 0 {
			tag := h.mem[0]
			h.mem = h.mem[1:]
			h.l2.MemDone(tag, h.cyc)
		}
		h.l2.Tick(h.cyc)
		h.l1s[0].Tick(h.cyc)
		h.l1s[1].Tick(h.cyc)
	}
}

func TestWriteInvalidatesSharer(t *testing.T) {
	h := newTwoL1(t)
	// Core 0 reads (becomes E owner), core 1 reads (both S), core 1 writes
	// (invalidates core 0).
	h.l1s[0].Access(0x5000, false, 0, 1)
	h.settle(100)
	h.l1s[1].Access(0x5000, false, h.cyc, 2)
	h.settle(100)
	if h.l2.Stats.Fetches == 0 {
		t.Fatal("reading an owned line must fetch from the owner")
	}
	h.l1s[1].Access(0x5000, true, h.cyc, 3)
	h.settle(200)
	if len(h.done) != 3 {
		t.Fatalf("done = %d, want 3", len(h.done))
	}
	if h.l2.Stats.Invals == 0 {
		t.Fatal("write must invalidate the other sharer")
	}
	// Core 0's next read misses (it was invalidated).
	before := h.l1s[0].Stats.L1Misses
	h.l1s[0].Access(0x5000, false, h.cyc, 4)
	h.settle(200)
	if h.l1s[0].Stats.L1Misses != before+1 {
		t.Fatal("stale copy survived invalidation")
	}
}

func TestOwnershipMigration(t *testing.T) {
	h := newTwoL1(t)
	h.l1s[0].Access(0x6000, true, 0, 1) // core 0 owns M
	h.settle(100)
	h.l1s[1].Access(0x6000, true, h.cyc, 2) // migrate to core 1
	h.settle(200)
	if len(h.done) != 2 {
		t.Fatalf("done = %d", len(h.done))
	}
	if h.l2.Stats.Fetches == 0 {
		t.Fatal("ownership migration must fetch-invalidate the old owner")
	}
	// Core 1 now hits.
	h.l1s[1].Access(0x6000, true, h.cyc, 3)
	h.settle(100)
	if h.l1s[1].Stats.L1Hits == 0 {
		t.Fatal("new owner must hit")
	}
}

// TestL2MemRetryKeepsOrder drives an L2 bank against a memory port that
// refuses chosen blocks: every tick retries each queued op in issue order
// and keeps the refused ones in that order, so a later op can go through
// while an earlier one is still refused.
func TestL2MemRetryKeepsOrder(t *testing.T) {
	refuse := map[mem.PAddr]bool{0x1000: true, 0x2000: true, 0x3000: true}
	var tried []mem.PAddr
	var tag uint64
	var refusedTag uint64
	accepted := map[uint64]mem.PAddr{}
	port := func(block mem.PAddr, write bool) (uint64, bool) {
		if !write {
			t.Fatalf("write-back of %#x issued as a read", uint64(block))
		}
		tag++
		tried = append(tried, block)
		if refuse[block] {
			refusedTag = tag
			return tag, false
		}
		accepted[tag] = block
		return tag, true
	}
	cfg := DefaultL2Config()
	cfg.BankSizeBytes = 4 << 10
	cfg.Ways = 4
	b := NewL2Bank(0, 64, cfg, func(int, Msg) bool { return true }, port)
	// Dirty write-backs of uncached blocks go straight to memory.
	for _, blk := range []mem.PAddr{0x1000, 0x2000, 0x3000} {
		b.Deliver(Msg{Type: MsgPutM, Block: blk, From: 1}, 0)
	}
	step := func(cycle uint64, want ...mem.PAddr) {
		t.Helper()
		tried = tried[:0]
		b.Tick(cycle)
		if len(tried) != len(want) {
			t.Fatalf("cycle %d: port tried %#x, want %#x", cycle, tried, want)
		}
		for i := range want {
			if tried[i] != want[i] {
				t.Fatalf("cycle %d: port tried %#x, want %#x", cycle, tried, want)
			}
		}
	}
	step(1, 0x1000, 0x2000, 0x3000) // handled in order, all refused
	delete(refuse, 0x2000)
	step(2, 0x1000, 0x2000, 0x3000) // 0x2000 passes the refused 0x1000
	step(3, 0x1000, 0x3000)         // the refused two stay, in order
	clear(refuse)
	step(4, 0x1000, 0x3000)
	step(5)
	if tag != 10 || len(accepted) != 3 {
		t.Fatalf("port saw %d attempts and accepted %v, want 10 attempts and 3 accepts", tag, accepted)
	}
	if !b.Busy() {
		t.Fatal("bank with outstanding writes reports idle")
	}
	for tg := range accepted {
		b.MemDone(tg, 6)
	}
	if b.Busy() {
		t.Fatal("bank busy after every write completed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("completing a refused attempt's tag must panic")
		}
	}()
	b.MemDone(refusedTag, 7)
}

// TestL2MissCycleAllocatesNothing pins the miss path's allocation freedom:
// once warm, a read miss, its fill, the victim's eviction and write-back
// and the grant allocate nothing.
func TestL2MissCycleAllocatesNothing(t *testing.T) {
	var tags, out []uint64
	var next uint64
	granted := 0
	send := func(dst int, m Msg) bool {
		if m.Type == MsgData {
			granted++
		}
		return true
	}
	port := func(mem.PAddr, bool) (uint64, bool) {
		next++
		tags = append(tags, next)
		return next, true
	}
	cfg := DefaultL2Config()
	cfg.BankSizeBytes = 4 << 10
	cfg.Ways = 4
	b := NewL2Bank(0, 64, cfg, send, port)
	stride := mem.PAddr(b.sets * mem.BlockSize) // every block maps to set 0
	block := mem.PAddr(0)
	var cyc uint64
	miss := func() {
		want := granted + 1
		b.Deliver(Msg{Type: MsgGetS, Block: block, From: 1}, cyc)
		block += stride
		for granted < want {
			cyc++
			b.Tick(cyc)
			for len(tags) > 0 {
				out, tags = tags, out[:0]
				for _, tg := range out {
					b.MemDone(tg, cyc)
				}
			}
		}
	}
	for i := 0; i < 2*cfg.Ways; i++ {
		miss()
	}
	evictions := b.Stats.L2Evictions
	if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
		t.Fatalf("warm L2 miss cycle allocates %.1f times, want 0", allocs)
	}
	if b.Stats.L2Evictions-evictions != 101 || b.Stats.MemWrites == 0 {
		t.Fatalf("misses did not evict and write back: %+v", b.Stats)
	}
}
