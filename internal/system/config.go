// Package system assembles the full simulated machine for each of the
// thesis's configuration schemes (§5.1): DRAM, HMC, ART, ARF-tid, ARF-addr,
// and the §5.4 ARF-tid-adaptive case study. It wires cores, the cache
// hierarchy and NoC, the memory side (DDR channels or the HMC dragonfly
// network with Active-Routing Engines), runs a workload to completion, and
// reports every statistic the evaluation figures need.
package system

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/hmc"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/workload"
)

// Scheme is one evaluated configuration (§5.1).
type Scheme int

// The six schemes.
const (
	SchemeDRAM Scheme = iota
	SchemeHMC
	SchemeART
	SchemeARFtid
	SchemeARFaddr
	SchemeARFtidAdaptive
	// SchemeARFea is the §6 energy-aware scheduling extension: forests
	// rooted at the port minimizing operand hop distance.
	SchemeARFea
)

// Schemes returns the five headline configurations in figure order.
func Schemes() []Scheme {
	return []Scheme{SchemeDRAM, SchemeHMC, SchemeART, SchemeARFtid, SchemeARFaddr}
}

// AllSchemes returns every evaluated configuration, including the §5.4
// adaptive case study and the §6 energy-aware extension.
func AllSchemes() []Scheme {
	return []Scheme{SchemeDRAM, SchemeHMC, SchemeART, SchemeARFtid,
		SchemeARFaddr, SchemeARFtidAdaptive, SchemeARFea}
}

// ParseScheme parses a scheme by its figure label (case-insensitive), the
// inverse of Scheme.String.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range AllSchemes() {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("system: unknown scheme %q (want one of DRAM, HMC, ART, ARF-tid, ARF-addr, ARF-tid-adaptive, ARF-ea)", name)
}

// String names the scheme as the figures label it.
func (s Scheme) String() string {
	switch s {
	case SchemeDRAM:
		return "DRAM"
	case SchemeHMC:
		return "HMC"
	case SchemeART:
		return "ART"
	case SchemeARFtid:
		return "ARF-tid"
	case SchemeARFaddr:
		return "ARF-addr"
	case SchemeARFtidAdaptive:
		return "ARF-tid-adaptive"
	case SchemeARFea:
		return "ARF-ea"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Active reports whether the scheme offloads with Active-Routing.
func (s Scheme) Active() bool { return s >= SchemeART }

// Mode returns the workload variant the scheme executes.
func (s Scheme) Mode() workload.Mode {
	switch s {
	case SchemeDRAM, SchemeHMC:
		return workload.ModeBaseline
	case SchemeARFtidAdaptive:
		return workload.ModeAdaptive
	default:
		return workload.ModeActive
	}
}

// Policy returns the coordinator's port policy for the scheme.
func (s Scheme) Policy() core.PortPolicy {
	switch s {
	case SchemeART:
		return core.PolicyStatic
	case SchemeARFaddr:
		return core.PolicyAddress
	case SchemeARFea:
		return core.PolicyEnergyAware
	default:
		return core.PolicyThreadID
	}
}

// MemTopology selects the memory network topology (dragonfly per Table
// 4.1; mesh is the ablation).
type MemTopology int

// Memory network topologies.
const (
	TopoDragonfly MemTopology = iota
	TopoMesh
)

// Config is the full machine configuration (Table 4.1, with cache sizes
// scaled alongside the scaled workload inputs — DESIGN.md).
type Config struct {
	Scheme  Scheme
	Threads int

	Core cpu.Config
	L1   cache.L1Config
	L2   cache.L2Config

	NoC    network.Config
	MemNet network.Config

	Cube    hmc.CubeConfig
	ARE     core.EngineConfig
	MemTopo MemTopology

	DRAMTiming dram.Timing
	DRAMGeom   mem.DRAMGeometry
	HMCGeom    mem.HMCGeometry

	CoordQueue int
	MIQueue    int
	MIWindow   int

	//ar:exempt(validate) every 64-bit seed keys a runnable machine
	Seed uint64
	//ar:prefix(cycle-inert) the budget caps how long the machine may run but never alters any cycle it does run, so points differing only in budget share every checkpoint
	MaxCycles uint64
	// IPCSampleCycles sets the Fig 5.8 sampling window.
	IPCSampleCycles uint64
}

// Validate rejects configurations the machine cannot be built or run with.
// It covers every field the sweep axes mutate plus the structural minima the
// assembly code assumes; DefaultConfig always validates.
func (c *Config) Validate() error {
	checks := []struct {
		ok   bool
		what string
	}{
		{c.Scheme >= SchemeDRAM && c.Scheme <= SchemeARFea, "Scheme out of range"},
		{c.Threads > 0, "Threads must be positive"},
		{c.Core.IssueWidth > 0 && c.Core.CommitWidth > 0, "core issue/commit width must be positive"},
		{c.Core.ROBSize > 0, "core ROB size must be positive"},
		{c.L1.SizeBytes > 0 && c.L1.Ways > 0, "L1 geometry must be positive"},
		{c.L1.MSHRs > 0, "L1.MSHRs must be positive"},
		{c.L1.InQDepth > 0, "L1.InQDepth must be positive"},
		{c.L2.BankSizeBytes > 0 && c.L2.Ways > 0, "L2 geometry must be positive"},
		{c.L2.InQDepth > 0, "L2.InQDepth must be positive"},
		{c.NoC.LinkBandwidth > 0, "NoC.LinkBandwidth must be positive"},
		{c.NoC.QueueDepth > 0, "NoC.QueueDepth must be positive"},
		{c.NoC.InjDepth > 0, "NoC.InjDepth must be positive"},
		{isPow2(c.NoC.ClockDiv), "NoC.ClockDiv must be a power of two"},
		{c.MemNet.LinkBandwidth > 0, "MemNet.LinkBandwidth must be positive"},
		{c.MemNet.QueueDepth > 0, "MemNet.QueueDepth must be positive"},
		{c.MemNet.InjDepth > 0, "MemNet.InjDepth must be positive"},
		{isPow2(c.MemNet.ClockDiv), "MemNet.ClockDiv must be a power of two"},
		{c.ARE.MaxFlows > 0, "ARE.MaxFlows must be positive"},
		{c.ARE.InQDepth > 0, "ARE.InQDepth must be positive"},
		{isPow2(c.ARE.ClockDiv), "ARE.ClockDiv must be a power of two"},
		{c.ARE.OperandBufs > 0, "ARE.OperandBufs must be positive"},
		{c.ARE.DecodeRate > 0 && c.ARE.ALURate > 0, "ARE decode/ALU rates must be positive"},
		{c.DRAMGeom.Channels > 0, "DRAM channels must be positive"},
		{c.HMCGeom.VaultsPerCube > 0, "HMCGeom.VaultsPerCube must be positive"},
		{c.CoordQueue > 0, "CoordQueue must be positive"},
		{c.MIQueue > 0 && c.MIWindow > 0, "MI queue/window must be positive"},
		{c.Cube.VaultQueue > 0 && c.Cube.XbarRate > 0, "cube vault queue and crossbar rate must be positive"},
		{c.Cube.Geom.VaultsPerCube > 0 && c.Cube.Geom.BanksPerVault > 0, "cube geometry must be positive"},
		{c.Cube.Timing.CyclesPerTick > 0, "cube DRAM timing CyclesPerTick must be positive"},
		{c.MemTopo == TopoDragonfly || c.MemTopo == TopoMesh, "MemTopo out of range"},
		{c.DRAMTiming.CyclesPerTick > 0, "DRAM timing CyclesPerTick must be positive"},
		{c.DRAMTiming.BL > 0, "DRAM timing burst length must be positive"},
		{c.MaxCycles > 0, "MaxCycles must be positive"},
		{isPow2(c.IPCSampleCycles), "IPCSampleCycles must be a power of two"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("system: invalid config: %s", ch.what)
		}
	}
	// The fabrics and topologies are built for exactly these values.
	for _, f := range [...]struct {
		name string
		vcs  int
	}{{"NoC", c.NoC.VCs}, {"MemNet", c.MemNet.VCs}} {
		if f.vcs != network.NumVCs {
			return fmt.Errorf("system: invalid config: %s.VCs must be %d (three traffic classes times two hop classes), got %d",
				f.name, network.NumVCs, f.vcs)
		}
	}
	if c.HMCGeom.Cubes != network.MemNetCubes {
		return fmt.Errorf("system: invalid config: HMCGeom.Cubes must be %d (both memory-network topologies have %d cubes), got %d",
			network.MemNetCubes, network.MemNetCubes, c.HMCGeom.Cubes)
	}
	// The cubes decode addresses with Cube.Geom and everything else with
	// HMCGeom; two geometries would be two machines.
	if c.Cube.Geom != c.HMCGeom {
		return fmt.Errorf("system: invalid config: Cube.Geom %+v must equal HMCGeom %+v", c.Cube.Geom, c.HMCGeom)
	}
	return nil
}

// isPow2 reports whether x is a power of two. Clock dividers and the IPC
// sampling window must be, so every clock edge is a mask test.
func isPow2(x uint64) bool { return x != 0 && x&(x-1) == 0 }

// cfgHashVersion salts Config.Hash. Bump it whenever the configuration
// schema changes shape, so results cached under the old schema (service
// result cache, sweep keys, the arserved disk store) can never collide
// with new ones. v2: the dead network EjectPerCycle knob was removed. v3:
// the sharded-kernel Shards/Workers knobs were added, zeroed before
// rendering. v4: the rendering switched from one whole-struct %#v to an
// explicit field-by-field enumeration so the hashcov analyzer can prove
// coverage per field — a new Config field that is not added here (or
// //ar:exempt(hash)-ed with a reviewed reason) now fails `arlint ./...`
// instead of silently fragmenting or poisoning the result cache. Removing
// Shards/Workers later left the v4 rendering unchanged (neither was ever
// rendered), so v4 keys stay valid.
const cfgHashVersion = "cfg/v4|"

// Hash returns a stable 64-bit digest of the full configuration, used to
// key cached and stored results: two runs share a hash iff every
// result-affecting configuration field (including nested component
// configs) is identical and the schema version matches. Every field is
// rendered explicitly — the hashcov analyzer enforces that this list and
// the Config struct never drift apart. The nested component configs are
// plain value types, so their %#v renderings are deterministic.
func (c *Config) Hash() string {
	h := fnv.New64a()
	h.Write([]byte(cfgHashVersion))
	fmt.Fprintf(h, "%d|%d|", c.Scheme, c.Threads)
	fmt.Fprintf(h, "%#v|%#v|%#v|", c.Core, c.L1, c.L2)
	fmt.Fprintf(h, "%#v|%#v|", c.NoC, c.MemNet)
	fmt.Fprintf(h, "%#v|%#v|%d|", c.Cube, c.ARE, c.MemTopo)
	fmt.Fprintf(h, "%#v|%#v|%#v|", c.DRAMTiming, c.DRAMGeom, c.HMCGeom)
	fmt.Fprintf(h, "%d|%d|%d|", c.CoordQueue, c.MIQueue, c.MIWindow)
	fmt.Fprintf(h, "%d|%d|%d", c.Seed, c.MaxCycles, c.IPCSampleCycles)
	return fmt.Sprintf("%016x", h.Sum64())
}

// prefixHashVersion salts Config.PrefixHash, independently of
// cfgHashVersion: prefix keys address checkpoint blobs, not result records,
// and the two families must never collide even if the field renderings
// coincide. Bump it whenever the prefix rendering changes shape.
const prefixHashVersion = "prefix/v1|"

// PrefixHash returns a stable 64-bit digest of every configuration field
// that can influence the machine's first `cycle` cycles — the
// content-address of a checkpoint taken at that cycle. Two configurations
// share a prefix hash iff a checkpoint taken under one restores exactly
// under the other:
//
//   - MaxCycles is excluded: //ar:prefix(cycle-inert) the budget caps how
//     long the machine may run but never alters any cycle it does run, so
//     points that differ only in budget share every checkpoint.
//   - ARE.MaxFlows is zeroed before rendering: flow-table capacity only
//     matters once the table fills, and the sweep layer's fork-validity
//     guard (leader peak below the fork's capacity, zero capacity stalls)
//     refuses the warm start whenever the prefix could have noticed the
//     difference. Every other ARE field is prefix-live.
func (c *Config) PrefixHash(cycle uint64) uint64 {
	pc := *c
	pc.ARE.MaxFlows = 0
	h := fnv.New64a()
	h.Write([]byte(prefixHashVersion))
	fmt.Fprintf(h, "%d|", cycle)
	fmt.Fprintf(h, "%d|%d|", pc.Scheme, pc.Threads)
	fmt.Fprintf(h, "%#v|%#v|%#v|", pc.Core, pc.L1, pc.L2)
	fmt.Fprintf(h, "%#v|%#v|", pc.NoC, pc.MemNet)
	fmt.Fprintf(h, "%#v|%#v|%d|", pc.Cube, pc.ARE, pc.MemTopo)
	fmt.Fprintf(h, "%#v|%#v|%#v|", pc.DRAMTiming, pc.DRAMGeom, pc.HMCGeom)
	fmt.Fprintf(h, "%d|%d|%d|", pc.CoordQueue, pc.MIQueue, pc.MIWindow)
	fmt.Fprintf(h, "%d|%d", pc.Seed, pc.IPCSampleCycles)
	return h.Sum64()
}

// mcTiles are the NoC tiles hosting the four memory controllers (Table
// 4.1: "4 MC at 4 corners").
var mcTiles = [4]int{0, 3, 12, 15}

// ctrlCubes are the cubes each HMC controller attaches to: one per
// dragonfly group, so the ARF forests can root four disjoint trees
// (DESIGN.md).
var ctrlCubes = [4]int{0, 4, 8, 12}

// DefaultConfig returns the evaluation machine for a scheme. Cache
// capacities are scaled by the same factor as the workload inputs
// (16 MB -> 32 KB L2, 16 KB -> 4 KB L1) so that the paper's
// working-set-exceeds-cache regime is preserved.
func DefaultConfig(scheme Scheme) Config {
	l1 := cache.DefaultL1Config()
	l1.SizeBytes = 4 << 10
	l2 := cache.DefaultL2Config()
	l2.BankSizeBytes = 2 << 10
	l2.Ways = 4
	return Config{
		Scheme:          scheme,
		Threads:         16,
		Core:            cpu.DefaultConfig(),
		L1:              l1,
		L2:              l2,
		NoC:             network.DefaultNoCConfig(),
		MemNet:          network.DefaultMemNetConfig(),
		Cube:            hmc.DefaultCubeConfig(),
		ARE:             core.DefaultEngineConfig(),
		MemTopo:         TopoDragonfly,
		DRAMTiming:      dram.DefaultDDRTiming(),
		DRAMGeom:        mem.DefaultDRAMGeometry(),
		HMCGeom:         mem.DefaultHMCGeometry(),
		CoordQueue:      32,
		MIQueue:         16,
		MIWindow:        16,
		Seed:            42,
		MaxCycles:       200_000_000,
		IPCSampleCycles: 2048,
	}
}
