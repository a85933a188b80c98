package system

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/network"
	"repro/internal/sim"
)

// slowPort is a coordinator port that accepts one packet every seventh
// cycle, recording the cycles it accepted.
type slowPort struct {
	e  *sim.Engine
	at []uint64
}

func (p *slowPort) Node() int      { return 16 }
func (p *slowPort) EntryNode() int { return 0 }
func (p *slowPort) Inject(network.Packet) bool {
	if p.e.Cycle()%7 != 0 {
		return false
	}
	p.at = append(p.at, p.e.Cycle())
	return true
}

// directory answers every MI coherence query three cycles after it is
// sent.
type directory struct {
	e     *sim.Engine
	mi    *MessageInterface
	due   []cache.Msg // queries; Block holds the answer cycle
	waker *sim.Waker
}

func (d *directory) SetWaker(w *sim.Waker) { d.waker = w }

func (d *directory) send(dst int, m cache.Msg) bool {
	m.Block = mem.PAddr(d.e.Cycle() + 3)
	d.due = append(d.due, m)
	d.waker.Wake()
	return true
}

func (d *directory) NextWork(now uint64) uint64 {
	if len(d.due) == 0 {
		return never
	}
	return max(uint64(d.due[0].Block), now)
}

func (d *directory) Tick(cycle uint64) {
	for len(d.due) > 0 && uint64(d.due[0].Block) <= cycle {
		d.mi.OnBackInvalDone(d.due[0].Tag)
		d.due = d.due[1:]
	}
}

// refusedMIRun queues twelve updates at one MI whose coordinator port
// holds one command and drains one every seventh cycle, so the MI's
// cleared head is refused most cycles. It returns the coordinator's
// EnqueueRejects, the MI's Tick count, the port's accept cycles and the end
// cycle.
func refusedMIRun(t *testing.T, lockstep bool) (uint64, int, []uint64, uint64) {
	e := sim.NewEngine()
	e.Lockstep = lockstep
	port := &slowPort{e: e}
	var mi *MessageInterface
	coord := core.NewCoordinator(core.PolicyStatic, mem.DefaultHMCGeometry(),
		[]core.Port{port, port, port, port}, mem.NewStore(), 1,
		func(int) {}, func(int) { mi.PortReady() })
	dir := &directory{e: e}
	mi = NewMessageInterface(0, dir.send, coord, 16, 4, func() {})
	dir.mi = mi
	log := &tickCount{Component: mi}
	e.Register("mi.", 0, log)
	e.Register("dir", -1, dir)
	e.Register("coordinator", -1, coord)
	for i := 0; i < 12; i++ {
		a := mem.PAddr(0x10000 + 64*i)
		if !mi.Update(core.UpdateCmd{Op: isa.OpAdd, Src1: a, Target: 0x8000}, 0) {
			t.Fatal("MI refused an update below its capacity")
		}
	}
	if _, err := e.RunUntil(func() bool { return len(port.at) == 12 }, 10000); err != nil {
		t.Fatal(err)
	}
	return coord.Stats.EnqueueRejects, log.n, port.at, e.Cycle()
}

// tickCount wraps a component and counts its Ticks.
type tickCount struct {
	sim.Component
	n int
}

func (t *tickCount) Tick(cycle uint64) {
	t.n++
	t.Component.Tick(cycle)
}

// TestMIParksOnCoordinatorRefusal checks the backpressure wake between an
// MI and the coordinator: an MI whose cleared head the coordinator refuses
// is not ticked until that port pops, and the EnqueueRejects it credits for
// the skipped cycles match the lockstep kernel's per-cycle retries.
func TestMIParksOnCoordinatorRefusal(t *testing.T) {
	rej, ticks, accepts, end := refusedMIRun(t, false)
	wantRej, lockTicks, wantAccepts, wantEnd := refusedMIRun(t, true)
	if wantRej == 0 {
		t.Fatal("no refusal: the test no longer fills the port queue")
	}
	if rej != wantRej {
		t.Fatalf("EnqueueRejects = %d, lockstep %d", rej, wantRej)
	}
	if !reflect.DeepEqual(accepts, wantAccepts) || end != wantEnd {
		t.Fatalf("port accepted at %v, end %d; lockstep %v, end %d", accepts, end, wantAccepts, wantEnd)
	}
	if ticks*3 > lockTicks {
		t.Fatalf("MI ticked %d times (lockstep %d): it did not park on the refusal", ticks, lockTicks)
	}
}
