package mem

import (
	"testing"
	"testing/quick"
)

func TestStoreReadWriteU64(t *testing.T) {
	s := NewStore()
	s.WriteU64(0x1000, 0xDEADBEEF)
	if got := s.ReadU64(0x1000); got != 0xDEADBEEF {
		t.Fatalf("ReadU64 = %#x", got)
	}
	if got := s.ReadU64(0x2000); got != 0 {
		t.Fatalf("untouched word = %#x, want 0", got)
	}
}

func TestStoreF64RoundTrip(t *testing.T) {
	s := NewStore()
	f := func(addr uint32, v float64) bool {
		pa := PAddr(addr) &^ 7
		s.WriteF64(pa, v)
		return s.ReadF64(pa) == v || (v != v && s.ReadF64(pa) != s.ReadF64(pa))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoreUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned access")
		}
	}()
	NewStore().ReadU64(0x1003)
}

func TestStorePageAccounting(t *testing.T) {
	s := NewStore()
	s.WriteU64(0, 1)
	s.WriteU64(PageSize-8, 2)
	s.WriteU64(PageSize, 3)
	if len(s.pages) != 2 {
		t.Fatalf("pages = %d, want 2", len(s.pages))
	}
}

func TestHMCGeometryMapping(t *testing.T) {
	g := DefaultHMCGeometry()
	// Consecutive pages rotate across cubes.
	for p := 0; p < 64; p++ {
		pa := PAddr(p * PageSize)
		if got, want := g.CubeOf(pa), p%16; got != want {
			t.Fatalf("CubeOf(page %d) = %d, want %d", p, got, want)
		}
	}
	// Consecutive blocks rotate across vaults.
	for b := 0; b < 64; b++ {
		pa := PAddr(b * BlockSize)
		if got, want := g.VaultOf(pa), b%32; got != want {
			t.Fatalf("VaultOf(block %d) = %d, want %d", b, got, want)
		}
	}
	if g.BankOf(0) < 0 || g.BankOf(0) >= g.BanksPerVault {
		t.Fatal("bank out of range")
	}
}

func TestHMCGeometryRanges(t *testing.T) {
	g := DefaultHMCGeometry()
	f := func(a uint64) bool {
		pa := PAddr(a)
		return g.CubeOf(pa) >= 0 && g.CubeOf(pa) < g.Cubes &&
			g.VaultOf(pa) >= 0 && g.VaultOf(pa) < g.VaultsPerCube &&
			g.BankOf(pa) >= 0 && g.BankOf(pa) < g.BanksPerVault
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDRAMGeometryRanges(t *testing.T) {
	g := DefaultDRAMGeometry()
	f := func(a uint64) bool {
		pa := PAddr(a)
		return g.ChannelOf(pa) >= 0 && g.ChannelOf(pa) < g.Channels &&
			g.RankOf(pa) >= 0 && g.RankOf(pa) < g.RanksPerChan &&
			g.BankOf(pa) >= 0 && g.BankOf(pa) < g.BanksPerRank
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrSpaceAllocTranslate(t *testing.T) {
	as := NewAddrSpace()
	va := as.Alloc(100, 8)
	if va == 0 {
		t.Fatal("allocation at address 0")
	}
	pa := as.Translate(va)
	pa2 := as.Translate(va + 8)
	if pa2 != pa+8 {
		t.Fatalf("intra-page translation not contiguous: %#x vs %#x", pa, pa2)
	}
}

func TestAddrSpaceAlignment(t *testing.T) {
	as := NewAddrSpace()
	as.Alloc(13, 8)
	va := as.Alloc(64, 64)
	if uint64(va)%64 != 0 {
		t.Fatalf("alignment violated: %#x", uint64(va))
	}
}

func TestAddrSpacePageFaultPanics(t *testing.T) {
	as := NewAddrSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("expected page fault panic")
		}
	}()
	as.Translate(0x100000000)
}

// mappedPages counts the virtual pages that have a frame.
func mappedPages(as *AddrSpace) int {
	n := 0
	for _, f := range as.frames {
		if f != ^uint64(0) {
			n++
		}
	}
	return n
}

func TestAddrSpaceDistinctFrames(t *testing.T) {
	as := NewAddrSpace()
	a := as.Alloc(PageSize, PageSize)
	b := as.Alloc(PageSize, PageSize)
	if as.Translate(a)>>PageShift == as.Translate(b)>>PageShift {
		t.Fatal("two allocations share a frame")
	}
	if n := mappedPages(as); n < 2 {
		t.Fatalf("mapped pages = %d", n)
	}
}

func TestAddrSpaceSpanningAllocMapsAllPages(t *testing.T) {
	as := NewAddrSpace()
	va := as.Alloc(3*PageSize+10, 8)
	for off := uint64(0); off <= 3*PageSize; off += PageSize {
		if vp := uint64(va+VAddr(off)) >> PageShift; vp >= uint64(len(as.frames)) || as.frames[vp] == ^uint64(0) {
			t.Fatalf("page at offset %d not mapped", off)
		}
	}
}

func TestBlockAlign(t *testing.T) {
	if BlockAlign(0x12345) != 0x12340 {
		t.Fatalf("BlockAlign(0x12345) = %#x", uint64(BlockAlign(0x12345)))
	}
	if BlockAlign(0x40) != 0x40 {
		t.Fatal("aligned address must be unchanged")
	}
}

func TestAllocBadAlignmentPanics(t *testing.T) {
	as := NewAddrSpace()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two alignment")
		}
	}()
	as.Alloc(8, 24)
}
