// Package mem implements the memory substrate shared by both machine
// configurations: virtual addressing with a page table (§3.4.1 of the
// thesis), a physical backing store holding real data values, and the
// physical address interleaving used by the DRAM and HMC systems.
//
// The simulator is functional as well as timed: loads, stores, near-data
// updates and in-network reductions all read and write real 64-bit values
// through this package, so every workload's result can be checked against a
// host-computed reference.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PageSize is the virtual and physical page size in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// BlockSize is the cache block / memory access granularity in bytes.
const BlockSize = 64

// WordSize is the operand word granularity in bytes (double precision).
const WordSize = 8

// VAddr is a virtual address.
type VAddr uint64

// PAddr is a physical address.
type PAddr uint64

// BlockAlign rounds a physical address down to its cache block.
func BlockAlign(pa PAddr) PAddr { return pa &^ (BlockSize - 1) }

// Store is the physical backing store: sparse 4 KB pages allocated on first
// touch. All values are little-endian 64-bit words.
type Store struct {
	pages map[uint64]*[PageSize]byte
}

// NewStore returns an empty backing store.
func NewStore() *Store { return &Store{pages: make(map[uint64]*[PageSize]byte)} }

func (s *Store) page(pa PAddr) *[PageSize]byte {
	pn := uint64(pa) >> PageShift
	p, ok := s.pages[pn]
	if !ok {
		p = new([PageSize]byte)
		s.pages[pn] = p
	}
	return p
}

// ReadU64 reads the 64-bit word at pa. The address must be 8-byte aligned.
func (s *Store) ReadU64(pa PAddr) uint64 {
	off := uint64(pa) & (PageSize - 1)
	if off%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned word read at %#x", uint64(pa)))
	}
	return binary.LittleEndian.Uint64(s.page(pa)[off : off+8])
}

// WriteU64 writes the 64-bit word at pa. The address must be 8-byte aligned.
func (s *Store) WriteU64(pa PAddr, v uint64) {
	off := uint64(pa) & (PageSize - 1)
	if off%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned word write at %#x", uint64(pa)))
	}
	binary.LittleEndian.PutUint64(s.page(pa)[off:off+8], v)
}

// ReadF64 reads the float64 at pa.
func (s *Store) ReadF64(pa PAddr) float64 { return math.Float64frombits(s.ReadU64(pa)) }

// WriteF64 writes the float64 at pa.
func (s *Store) WriteF64(pa PAddr, v float64) { s.WriteU64(pa, math.Float64bits(v)) }

// HMCGeometry describes the die-stacked memory side of Table 4.1: 16 cubes
// of 4 GB, 32 vaults per cube, 8 banks per vault.
type HMCGeometry struct {
	Cubes         int
	VaultsPerCube int
	BanksPerVault int
}

// DefaultHMCGeometry is the Table 4.1 configuration.
func DefaultHMCGeometry() HMCGeometry {
	return HMCGeometry{Cubes: 16, VaultsPerCube: 32, BanksPerVault: 8}
}

// CubeOf returns the cube holding pa. Pages are interleaved across cubes at
// page granularity so consecutive pages of a large array spread over the
// memory network.
func (g HMCGeometry) CubeOf(pa PAddr) int {
	return int((uint64(pa) >> PageShift) % uint64(g.Cubes))
}

// VaultOf returns the vault within the cube holding pa. Blocks are
// interleaved across vaults at cache-block granularity for maximum
// vault-level parallelism.
func (g HMCGeometry) VaultOf(pa PAddr) int {
	return int((uint64(pa) >> 6) % uint64(g.VaultsPerCube))
}

// BankOf returns the bank within the vault holding pa.
func (g HMCGeometry) BankOf(pa PAddr) int {
	return int((uint64(pa) >> 16) % uint64(g.BanksPerVault))
}

// RowOf returns the DRAM row within the bank holding pa (2 KB rows).
func (g HMCGeometry) RowOf(pa PAddr) uint64 { return uint64(pa) >> 19 }

// DRAMGeometry describes the DDR baseline of Table 4.1: 4 memory
// controllers, 4 ranks per channel, 64 banks per rank.
type DRAMGeometry struct {
	Channels     int
	RanksPerChan int
	BanksPerRank int
}

// DefaultDRAMGeometry is the Table 4.1 configuration.
func DefaultDRAMGeometry() DRAMGeometry {
	return DRAMGeometry{Channels: 4, RanksPerChan: 4, BanksPerRank: 64}
}

// ChannelOf returns the channel holding pa (page interleaved).
func (g DRAMGeometry) ChannelOf(pa PAddr) int {
	return int((uint64(pa) >> PageShift) % uint64(g.Channels))
}

// RankOf returns the rank within the channel holding pa.
func (g DRAMGeometry) RankOf(pa PAddr) int {
	return int((uint64(pa) >> 14) % uint64(g.RanksPerChan))
}

// BankOf returns the bank within the rank holding pa.
func (g DRAMGeometry) BankOf(pa PAddr) int {
	return int((uint64(pa) >> 16) % uint64(g.BanksPerRank))
}

// RowOf returns the row within the bank (2 KB rows).
func (g DRAMGeometry) RowOf(pa PAddr) uint64 { return uint64(pa) >> 22 }

// AddrSpace is a process address space: a bump allocator over virtual pages
// and a page table mapping them to sequentially assigned physical frames.
// Active-Routing offload instructions translate through the same page table
// as normal loads and stores (§3.4.1).
type AddrSpace struct {
	brk       VAddr
	frames    []uint64 // vpage index -> physical frame number
	nextFrame uint64
}

// NewAddrSpace returns an empty address space. Both the virtual break and
// the physical frame allocator start at one page so that address 0 is never
// valid in either space: Update packets encode "no second operand" as a
// zero physical address (§3.1.1's nil src2).
func NewAddrSpace() *AddrSpace {
	return &AddrSpace{brk: PageSize, nextFrame: 1}
}

// Alloc reserves n bytes aligned to align (a power of two, at least 8) and
// returns the starting virtual address. Pages are mapped eagerly.
func (as *AddrSpace) Alloc(n uint64, align uint64) VAddr {
	if align < WordSize {
		align = WordSize
	}
	if align&(align-1) != 0 {
		panic("mem: Alloc alignment must be a power of two")
	}
	start := (uint64(as.brk) + align - 1) &^ (align - 1)
	as.brk = VAddr(start + n)
	// Map every page the allocation touches.
	first := start >> PageShift
	last := (start + n - 1) >> PageShift
	for vp := first; vp <= last; vp++ {
		as.mapPage(vp)
	}
	return VAddr(start)
}

// mapPage assigns the physical frame for a virtual page. Frames preserve
// the page number (page-coloring allocation): the physical page keeps the
// virtual page's cube/channel interleave phase, which is what lets NUMA-
// conscious allocations co-locate paired arrays on the same cubes — the
// locality the thesis's near-data processing exploits. The thesis's
// ARF-addr imbalance discussion ("if the linear virtual memory space is
// not hashed well") corresponds to exactly this linear assignment.
func (as *AddrSpace) mapPage(vp uint64) {
	for uint64(len(as.frames)) <= vp {
		as.frames = append(as.frames, ^uint64(0))
	}
	if as.frames[vp] == ^uint64(0) {
		as.frames[vp] = vp
		as.nextFrame++
	}
}

// Translate converts a virtual address to a physical address. Accessing an
// unmapped page panics: workloads always allocate before touching memory,
// so a fault here is a simulator bug.
func (as *AddrSpace) Translate(va VAddr) PAddr {
	vp := uint64(va) >> PageShift
	if vp >= uint64(len(as.frames)) || as.frames[vp] == ^uint64(0) {
		panic(fmt.Sprintf("mem: page fault at va %#x", uint64(va)))
	}
	return PAddr(as.frames[vp]<<PageShift | uint64(va)&(PageSize-1))
}
