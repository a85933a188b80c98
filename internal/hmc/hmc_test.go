package hmc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/network"
)

// rig is a two-cube memory network with one controller.
type rig struct {
	fabric *network.Fabric
	store  *mem.Store
	cubes  []*Cube
	ctrl   *Controller
	cycle  uint64
	// completed maps each finished ctrl.Access token to its completion
	// cycle (the controller's done hook).
	completed map[uint64]uint64
}

func newRig(t *testing.T, withARE bool) *rig {
	t.Helper()
	topo := network.NewDragonfly([]int{0, 4, 8, 12})
	r := &rig{
		fabric: network.NewFabric(topo, network.DefaultMemNetConfig()),
		store:  mem.NewStore(),

		completed: make(map[uint64]uint64),
	}
	cfg := DefaultCubeConfig()
	for c := 0; c < 16; c++ {
		cube := NewCube(c, cfg, r.fabric, r.store)
		if withARE {
			cube.AttachARE(core.DefaultEngineConfig())
		}
		r.cubes = append(r.cubes, cube)
	}
	r.ctrl = NewController(0, 16, 0, cfg.Geom, r.fabric, 32,
		func(token, cycle uint64) { r.completed[token] = cycle })
	// The other controller nodes still need endpoints.
	for i := 1; i < 4; i++ {
		NewController(i, 16+i, []int{0, 4, 8, 12}[i], cfg.Geom, r.fabric, 32, nil)
	}
	return r
}

func (r *rig) run(n int) {
	for i := 0; i < n; i++ {
		r.cycle++
		r.fabric.Tick(r.cycle)
		for _, c := range r.cubes {
			c.Tick(r.cycle)
		}
		r.ctrl.Tick(r.cycle)
	}
}

func TestMemoryReadRoundTrip(t *testing.T) {
	r := newRig(t, false)
	pa := mem.PAddr(5 * mem.PageSize) // cube 5
	r.store.WriteF64(pa, 42)
	ok := r.ctrl.Access(pa, false, 1)
	if !ok {
		t.Fatal("access rejected")
	}
	r.run(4000)
	lat, done := r.completed[1]
	if !done {
		t.Fatal("read never completed")
	}
	if lat == 0 || lat > 2000 {
		t.Fatalf("latency %d implausible", lat)
	}
	if r.cubes[5].Stats.MemReads != 1 {
		t.Fatalf("cube stats: %+v", r.cubes[5].Stats)
	}
}

func TestMemoryWriteRoundTrip(t *testing.T) {
	r := newRig(t, false)
	pa := mem.PAddr(9 * mem.PageSize)
	if !r.ctrl.Access(pa, true, 1) {
		t.Fatal("access rejected")
	}
	r.run(4000)
	if _, done := r.completed[1]; !done {
		t.Fatal("write never acknowledged")
	}
	if r.cubes[9].Stats.MemWrites != 1 {
		t.Fatalf("cube stats: %+v", r.cubes[9].Stats)
	}
}

func TestManyOutstandingReads(t *testing.T) {
	r := newRig(t, false)
	const n = 64
	issued := 0
	for i := 0; i < n; i++ {
		pa := mem.PAddr(i * mem.PageSize)
		if r.ctrl.Access(pa, false, uint64(i)) {
			issued++
		}
		r.run(4)
	}
	r.run(8000)
	if done := len(r.completed); done != issued || issued == 0 {
		t.Fatalf("completed %d of %d issued", done, issued)
	}
	if r.ctrl.Busy() {
		t.Fatal("controller left busy")
	}
}

// TestActiveUpdateThroughNetwork drives a full update/gather flow through
// real cubes and links via the coordinator.
func TestActiveUpdateThroughNetwork(t *testing.T) {
	r := newRig(t, true)
	geom := DefaultCubeConfig().Geom

	// Operands on cube 5, reduction target on cube 9.
	a := mem.PAddr(5 * mem.PageSize)
	b := a + 8
	target := mem.PAddr(9 * mem.PageSize)
	r.store.WriteF64(a, 6)
	r.store.WriteF64(b, 7)
	r.store.WriteF64(target, 100)

	woken := false
	coord := core.NewCoordinator(core.PolicyStatic, geom, []core.Port{r.ctrl, r.ctrl, r.ctrl, r.ctrl}, r.store, 32,
		func(int) { woken = true }, func(int) {})
	r.ctrl.OnGatherResp = coord.OnGatherResp
	r.ctrl.OnActiveAck = coord.OnActiveAck

	if !coord.EnqueueUpdate(core.UpdateCmd{Op: isa.OpMac, Src1: a, Src2: b, Target: target}, 0) {
		t.Fatal("update rejected")
	}
	coord.EnqueueGather(core.GatherCmd{Target: target, Threads: 1}, 0)
	for i := 0; i < 20000 && !woken; i++ {
		r.cycle++
		r.fabric.Tick(r.cycle)
		for _, c := range r.cubes {
			c.Tick(r.cycle)
		}
		r.ctrl.Tick(r.cycle)
		coord.Tick(r.cycle)
	}
	if !woken {
		t.Fatal("gather never completed")
	}
	if got := r.store.ReadF64(target); got != 142 {
		t.Fatalf("target = %v, want 100 + 6*7 = 142", got)
	}
	if coord.Busy() {
		t.Fatal("coordinator left busy")
	}
}

// TestActiveStoreMovThroughNetwork reads at one cube and writes at another
// (the pagerank mov pattern).
func TestActiveStoreMovThroughNetwork(t *testing.T) {
	r := newRig(t, true)
	geom := DefaultCubeConfig().Geom
	src := mem.PAddr(3 * mem.PageSize)
	dst := mem.PAddr(11 * mem.PageSize)
	r.store.WriteF64(src, 3.75)

	coord := core.NewCoordinator(core.PolicyStatic, geom, []core.Port{r.ctrl, r.ctrl, r.ctrl, r.ctrl}, r.store, 32, nil, nil)
	r.ctrl.OnGatherResp = coord.OnGatherResp
	r.ctrl.OnActiveAck = coord.OnActiveAck
	if !coord.EnqueueUpdate(core.UpdateCmd{Op: isa.OpMov, Src1: src, Target: dst}, 0) {
		t.Fatal("mov rejected")
	}
	for i := 0; i < 20000 && coord.Busy(); i++ {
		r.cycle++
		r.fabric.Tick(r.cycle)
		for _, c := range r.cubes {
			c.Tick(r.cycle)
		}
		r.ctrl.Tick(r.cycle)
		coord.Tick(r.cycle)
	}
	if coord.Busy() {
		t.Fatal("mov never acknowledged")
	}
	if got := r.store.ReadF64(dst); got != 3.75 {
		t.Fatalf("dst = %v, want 3.75", got)
	}
}

func TestCubeGeometryHelpers(t *testing.T) {
	r := newRig(t, false)
	c := r.cubes[3]
	if c.CubeOf(mem.PAddr(7*mem.PageSize)) != 7 {
		t.Fatal("CubeOf broken")
	}
	if c.NodeOfCube(7) != 7 {
		t.Fatal("NodeOfCube broken")
	}
	next := c.NextHopToCube(7)
	if next == 3 || next < 0 || next > 15 {
		t.Fatalf("NextHopToCube(7) = %d", next)
	}
}
