package cpu

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// instantMem completes every access of core c after a fixed latency,
// driven by tick.
type instantMem struct {
	c       *Core
	lat     uint64
	pending []struct {
		at, token uint64
	}
	accesses int
	refuse   bool
}

func (m *instantMem) Access(addr mem.PAddr, write bool, cycle uint64, token uint64) bool {
	if m.refuse {
		return false
	}
	m.accesses++
	m.pending = append(m.pending, struct {
		at, token uint64
	}{cycle + m.lat, token})
	return true
}

func (m *instantMem) tick(cycle uint64) {
	kept := m.pending[:0]
	for _, p := range m.pending {
		if p.at <= cycle {
			m.c.MemDone(p.token)
		} else {
			kept = append(kept, p)
		}
	}
	m.pending = kept
}

// mockOffload accepts offloads and records them.
type mockOffload struct {
	updates []core.UpdateCmd
	gathers []core.GatherCmd
	refuse  bool
}

func (o *mockOffload) Update(cmd core.UpdateCmd, cycle uint64) bool {
	if o.refuse {
		return false
	}
	o.updates = append(o.updates, cmd)
	return true
}

func (o *mockOffload) Gather(cmd core.GatherCmd, cycle uint64) bool {
	if o.refuse {
		return false
	}
	o.gathers = append(o.gathers, cmd)
	return true
}

func env() (*mem.Store, *mem.AddrSpace) {
	return mem.NewStore(), mem.NewAddrSpace()
}

// replay builds a trace of insts and returns its stream.
func replay(insts []isa.Inst) isa.Stream {
	tr := &isa.Trace{}
	for _, in := range insts {
		tr.Append(in)
	}
	return tr.Replay()
}

func runCore(c *Core, m *instantMem, budget int) int {
	if m != nil {
		m.c = c
	}
	for i := 0; i < budget; i++ {
		if m != nil {
			m.tick(uint64(i))
		}
		c.Tick(uint64(i))
		if c.Finished() {
			return i
		}
	}
	return budget
}

func TestCoreRetiresComputeTrace(t *testing.T) {
	st, as := env()
	insts := make([]isa.Inst, 100)
	for i := range insts {
		insts[i] = isa.Inst{Kind: isa.KindCompute, Class: isa.ClassInt}
	}
	c := NewCore(0, DefaultConfig(), replay(insts), &instantMem{}, nil, st, as, nil)
	if runCore(c, nil, 1000) >= 1000 {
		t.Fatal("core never finished")
	}
	if c.Stats.Retired != 100 || c.Stats.Computes != 100 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestStoreAppliesFunctionally(t *testing.T) {
	st, as := env()
	va := as.Alloc(8, 8)
	insts := []isa.Inst{{Kind: isa.KindStore, Addr: va, Value: 3.25}}
	m := &instantMem{lat: 5}
	c := NewCore(0, DefaultConfig(), replay(insts), m, nil, st, as, nil)
	runCore(c, m, 1000)
	if got := st.ReadF64(as.Translate(va)); got != 3.25 {
		t.Fatalf("store value = %v", got)
	}
	if c.Stats.Stores != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestAtomicAddAccumulates(t *testing.T) {
	st, as := env()
	va := as.Alloc(8, 8)
	st.WriteF64(as.Translate(va), 1)
	insts := []isa.Inst{
		{Kind: isa.KindAtomicAdd, Addr: va, Value: 2},
		{Kind: isa.KindAtomicAdd, Addr: va, Value: 0.5},
	}
	m := &instantMem{lat: 3}
	c := NewCore(0, DefaultConfig(), replay(insts), m, nil, st, as, nil)
	runCore(c, m, 1000)
	if got := st.ReadF64(as.Translate(va)); got != 3.5 {
		t.Fatalf("atomic sum = %v, want 3.5", got)
	}
}

func TestROBLimitsInFlight(t *testing.T) {
	st, as := env()
	va := as.Alloc(1<<16, 64)
	var insts []isa.Inst
	for i := 0; i < 200; i++ {
		insts = append(insts, isa.Inst{Kind: isa.KindLoad, Addr: va + mem.VAddr(i*64)})
	}
	m := &instantMem{lat: 10000} // memory never answers within the test
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	c := NewCore(0, cfg, replay(insts), m, nil, st, as, nil)
	for i := 0; i < 100; i++ {
		c.Tick(uint64(i))
	}
	if m.accesses > cfg.ROBSize {
		t.Fatalf("%d loads in flight with ROB of %d", m.accesses, cfg.ROBSize)
	}
	if c.Stats.ROBFullCycles == 0 {
		t.Fatal("ROB-full stall not counted")
	}
}

func TestUpdateIsFireAndForget(t *testing.T) {
	st, as := env()
	va := as.Alloc(64, 8)
	insts := []isa.Inst{
		{Kind: isa.KindUpdate, Src1: va, Target: va + 8, Op: isa.OpAdd},
		{Kind: isa.KindCompute, Class: isa.ClassInt},
	}
	off := &mockOffload{}
	c := NewCore(0, DefaultConfig(), replay(insts), &instantMem{}, off, st, as, nil)
	if runCore(c, nil, 100) >= 100 {
		t.Fatal("core stalled on a fire-and-forget update")
	}
	if len(off.updates) != 1 {
		t.Fatal("update not offloaded")
	}
	if off.updates[0].Src1 != as.Translate(va) {
		t.Fatal("update operand not translated to a physical address")
	}
}

func TestGatherFencesDispatch(t *testing.T) {
	st, as := env()
	va := as.Alloc(64, 8)
	insts := []isa.Inst{
		{Kind: isa.KindGather, Target: va, Threads: 1},
		{Kind: isa.KindUpdate, Src1: va, Target: va + 8, Op: isa.OpAdd},
	}
	off := &mockOffload{}
	c := NewCore(0, DefaultConfig(), replay(insts), &instantMem{}, off, st, as, nil)
	for i := 0; i < 50; i++ {
		c.Tick(uint64(i))
	}
	if len(off.updates) != 0 {
		t.Fatal("update dispatched past an unresolved gather fence")
	}
	if c.Stats.FenceCycles == 0 {
		t.Fatal("fence stall not counted")
	}
	// Release the gather: the update must now flow.
	c.ReleaseFence()
	for i := 50; i < 100; i++ {
		c.Tick(uint64(i))
	}
	if len(off.updates) != 1 {
		t.Fatal("update never dispatched after fence release")
	}
	if !c.Finished() {
		t.Fatal("core never finished")
	}
}

func TestOffloadBackpressureStalls(t *testing.T) {
	st, as := env()
	va := as.Alloc(64, 8)
	insts := []isa.Inst{{Kind: isa.KindUpdate, Src1: va, Target: va + 8, Op: isa.OpAdd}}
	off := &mockOffload{refuse: true}
	c := NewCore(0, DefaultConfig(), replay(insts), &instantMem{}, off, st, as, nil)
	for i := 0; i < 20; i++ {
		c.Tick(uint64(i))
	}
	if c.Finished() {
		t.Fatal("core finished despite refused offload")
	}
	if c.Stats.OffloadStalls == 0 {
		t.Fatal("offload stall not counted")
	}
	off.refuse = false
	for i := 20; i < 60; i++ {
		c.Tick(uint64(i))
	}
	if !c.Finished() {
		t.Fatal("core stuck after offload unblocked")
	}
}

func TestBarrierSynchronizesThreads(t *testing.T) {
	st, as := env()
	var cores [2]*Core
	b := NewBarrier(2, func(tid int) { cores[tid].ReleaseFence() })
	mk := func(id, extra int) *Core {
		var insts []isa.Inst
		for i := 0; i < extra; i++ {
			insts = append(insts, isa.Inst{Kind: isa.KindCompute, Class: isa.ClassInt})
		}
		insts = append(insts, isa.Inst{Kind: isa.KindBarrier})
		insts = append(insts, isa.Inst{Kind: isa.KindCompute, Class: isa.ClassInt})
		cores[id] = NewCore(id, DefaultConfig(), replay(insts), &instantMem{}, nil, st, as, b)
		return cores[id]
	}
	fast := mk(0, 0)
	slow := mk(1, 400)
	var fastDone, slowDone int
	for i := 0; i < 10000 && (!fast.Finished() || !slow.Finished()); i++ {
		fast.Tick(uint64(i))
		slow.Tick(uint64(i))
		b.Tick(uint64(i)) // deferred release: waiters resume on the next cycle
		if fast.Finished() && fastDone == 0 {
			fastDone = i
		}
		if slow.Finished() && slowDone == 0 {
			slowDone = i
		}
	}
	if fastDone == 0 || slowDone == 0 {
		t.Fatal("cores never finished")
	}
	if b.Crossings != 1 {
		t.Fatalf("barrier crossings = %d", b.Crossings)
	}
	// The fast core must have waited for the slow one.
	if fastDone+60 < slowDone {
		t.Fatalf("fast core finished at %d long before slow core at %d (no barrier wait)", fastDone, slowDone)
	}
}

func TestIPCSeriesAdvances(t *testing.T) {
	st, as := env()
	insts := make([]isa.Inst, 1<<15)
	for i := range insts {
		insts[i] = isa.Inst{Kind: isa.KindCompute, Class: isa.ClassInt}
	}
	c := NewCore(0, DefaultConfig(), replay(insts), &instantMem{}, nil, st, as, nil)
	runCore(c, nil, 1<<20)
	if c.IPC.TotalInsts != uint64(len(insts)) {
		t.Fatalf("ipc series counted %d of %d", c.IPC.TotalInsts, len(insts))
	}
	if len(c.IPC.Points) == 0 {
		t.Fatal("no IPC windows closed")
	}
}

// TestRestoreRejectsBadPendingInst feeds a decoding State a core section whose
// pending instruction holds a field value no trace produces: the decode
// must fail with a diagnosable error instead of panicking at dispatch.
func TestRestoreRejectsBadPendingInst(t *testing.T) {
	st, as := env()
	va := as.Alloc(64, 8)
	insts := []isa.Inst{{Kind: isa.KindLoad, Addr: va}}
	cases := []struct {
		name string
		in   isa.Inst
		want string
	}{
		{"kind", isa.Inst{Kind: isa.Kind(7)}, "instruction kind 7"},
		{"class", isa.Inst{Class: isa.CompClass(3)}, "compute class 3"},
		{"op", isa.Inst{Kind: isa.KindUpdate, Op: isa.ALUOp(9)}, "update op 9"},
		{"threads", isa.Inst{Kind: isa.KindGather, Threads: -1}, "thread count -1"},
		{"count", isa.Inst{Kind: isa.KindUpdate, Count: isa.MaxCount + 1}, "element count 9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := NewCore(0, DefaultConfig(), replay(insts), &instantMem{}, nil, st, as, nil)
			src.pending, src.hasPending = tc.in, true
			e := sim.NewEncoder(nil)
			src.State(e)
			dst := NewCore(0, DefaultConfig(), replay(insts), &instantMem{}, nil, st, as, nil)
			d := sim.NewDecoder(e.Bytes())
			dst.State(d)
			if d.Err() == nil || !strings.Contains(d.Err().Error(), tc.want) {
				t.Fatalf("Restore error = %v, want one naming %q", d.Err(), tc.want)
			}
		})
	}
	// The same section with a valid pending instruction restores cleanly.
	src := NewCore(0, DefaultConfig(), replay(insts), &instantMem{}, nil, st, as, nil)
	src.pending, src.hasPending = insts[0], true
	e := sim.NewEncoder(nil)
	src.State(e)
	dst := NewCore(0, DefaultConfig(), replay(insts), &instantMem{}, nil, st, as, nil)
	d := sim.NewDecoder(e.Bytes())
	if dst.State(d); d.Err() != nil || dst.pending != insts[0] {
		t.Fatalf("valid section: err %v, pending %+v", d.Err(), dst.pending)
	}
}

func TestMemPortLimit(t *testing.T) {
	st, as := env()
	va := as.Alloc(1<<16, 64)
	var insts []isa.Inst
	for i := 0; i < 64; i++ {
		insts = append(insts, isa.Inst{Kind: isa.KindLoad, Addr: va + mem.VAddr(i*64)})
	}
	m := &instantMem{lat: 1}
	cfg := DefaultConfig()
	cfg.MemPorts = 1
	c := NewCore(0, cfg, replay(insts), m, nil, st, as, nil)
	c.Tick(0)
	if m.accesses > 1 {
		t.Fatalf("%d loads issued in one cycle with 1 port", m.accesses)
	}
}
