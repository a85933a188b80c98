package system

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// MessageInterface is the per-core MI of Fig 3.1 (§3.1.2): it accepts
// Update/Gather instructions from the core, performs the §3.4.2 coherence
// query (a back-invalidation probe at the block's directory bank) for each
// offload, and forwards commands to the flow coordinator in program order —
// a Gather can never overtake its thread's earlier Updates.
type MessageInterface struct {
	tile  int
	send  cache.Sender
	coord *core.Coordinator

	queue     sim.FIFO[miEntry]
	cap       int
	window    int
	nextTag   uint64
	unqueried int // updates whose coherence query has not been sent yet
	// scanFrom is the queue offset of the first unqueried update: queries
	// are issued strictly front to back, so every earlier entry is already
	// queried (or a gather) and the per-tick window scan starts here. An
	// update leaves the queue only once cleared, so every outstanding query
	// belongs to an entry before scanFrom, which is at most the window.
	scanFrom int

	// waker invalidates the engine's cached idle hint on external input
	// (Update/Gather from the core, OnBackInvalDone from the directory,
	// PortReady from the coordinator).
	waker *sim.Waker
	// ready tells the core that a drained entry made room in the queue.
	ready func()

	// refused is set while the coordinator has refused the head update
	// and its port has not popped since. Every cycle of that wait would
	// have been one more refused retry in the lockstep kernel, so Tick
	// and NextWork (through stall) credit EnqueueRejects for it without
	// asking the coordinator again.
	refused bool
	stall   sim.Stall
}

type miEntry struct {
	upd      core.UpdateCmd
	gather   core.GatherCmd
	isGather bool
	queried  bool
	cleared  bool
	tag      uint64
}

// NewMessageInterface builds the MI for the core at tile; ready is called
// whenever the MI drains an entry, the only event that can turn a refused
// Update or Gather into an accepted one.
func NewMessageInterface(tile int, send cache.Sender, coord *core.Coordinator, capacity, window int, ready func()) *MessageInterface {
	return &MessageInterface{
		tile:   tile,
		send:   send,
		coord:  coord,
		cap:    capacity,
		window: window,
		ready:  ready,
	}
}

// PortReady tells the MI that the coordinator port which refused its head
// update has popped, so a retry may succeed.
func (mi *MessageInterface) PortReady() {
	if mi.refused {
		mi.refused = false
		mi.waker.Wake()
	}
}

var _ cpu.OffloadPort = (*MessageInterface)(nil)

// SetWaker implements sim.Component.
func (mi *MessageInterface) SetWaker(w *sim.Waker) { mi.waker = w }

// Update implements cpu.OffloadPort; false stalls the core (offload
// backpressure).
func (mi *MessageInterface) Update(cmd core.UpdateCmd, cycle uint64) bool {
	if mi.queue.Len() >= mi.cap {
		return false
	}
	mi.queue.Push(miEntry{upd: cmd})
	mi.unqueried++
	mi.waker.Wake()
	return true
}

// Gather implements cpu.OffloadPort.
func (mi *MessageInterface) Gather(cmd core.GatherCmd, cycle uint64) bool {
	if mi.queue.Len() >= mi.cap {
		return false
	}
	mi.queue.Push(miEntry{gather: cmd, isGather: true})
	mi.waker.Wake()
	return true
}

// Busy reports queued offloads.
func (mi *MessageInterface) Busy() bool { return mi.queue.Len() > 0 }

// NextWork implements sim.Component. The MI is quiescent when its queue is
// empty, and also while every update in the query window has been queried
// and the head is either still waiting for its back-invalidation ack
// (which arrives via OnBackInvalDone) or refused by a coordinator port
// that has not popped since (PortReady). A skipped cycle of the refused
// wait is credited to the coordinator's EnqueueRejects, the count the
// lockstep kernel's retry would have added.
func (mi *MessageInterface) NextWork(now uint64) uint64 {
	mi.stall.Poll(now)
	if mi.queue.Len() == 0 {
		return never
	}
	if mi.unqueried > 0 && mi.scanFrom < mi.window {
		return now // an unqueried update sits inside the query window
	}
	head := mi.queue.PtrAt(0)
	if head.isGather || (head.cleared && !mi.refused) {
		return now
	}
	if head.cleared {
		mi.stall.Wait(&mi.coord.Stats.EnqueueRejects)
	}
	return never
}

// queryAddr picks the address whose directory bank is probed before the
// offload proceeds (§3.4.2).
func queryAddr(cmd core.UpdateCmd) mem.PAddr {
	if cmd.Src1 != 0 {
		return cmd.Src1
	}
	return cmd.Target
}

// Tick issues coherence queries for the leading window of un-queried
// updates, starting at the cursor (everything before it is already
// queried), then drains cleared commands to the coordinator in FIFO order.
//
//ar:hotpath
func (mi *MessageInterface) Tick(cycle uint64) {
	limit := mi.window
	if limit > mi.queue.Len() {
		limit = mi.queue.Len()
	}
	for i := mi.scanFrom; i < limit; i++ {
		e := mi.queue.PtrAt(i)
		if e.isGather || e.queried {
			mi.scanFrom = i + 1
			continue
		}
		block := mem.BlockAlign(queryAddr(e.upd))
		mi.nextTag++
		tag := uint64(mi.tile)<<tagTileShift | mi.nextTag
		m := cache.Msg{Type: cache.MsgBackInvalQ, Block: block, From: mi.tile, Tag: tag}
		if !mi.send(cache.BankOf(block, 16), m) {
			break
		}
		e.queried = true
		e.tag = tag
		mi.unqueried--
		mi.scanFrom = i + 1
	}
	popped := false
	for mi.queue.Len() > 0 {
		e := mi.queue.PtrAt(0)
		if e.isGather {
			if !mi.coord.EnqueueGather(e.gather, cycle) {
				break
			}
		} else {
			if !e.cleared {
				break
			}
			if mi.refused {
				// The refusing port has not popped since (PortReady), so
				// the coordinator would refuse this head again.
				mi.coord.Stats.EnqueueRejects++
				break
			}
			if mi.refused = !mi.coord.EnqueueUpdate(e.upd, cycle); mi.refused {
				break
			}
		}
		mi.queue.Pop()
		popped = true
		if mi.scanFrom > 0 {
			mi.scanFrom--
		}
	}
	if popped {
		mi.ready()
	}
}

// OnBackInvalDone clears the queried entry so it can be forwarded. The
// entry is still queued before scanFrom (see scanFrom).
func (mi *MessageInterface) OnBackInvalDone(tag uint64) {
	for i := 0; i < mi.scanFrom; i++ {
		if e := mi.queue.PtrAt(i); !e.isGather && e.tag == tag {
			e.cleared = true
			mi.waker.Wake()
			return
		}
	}
	panic(fmt.Sprintf("system: MI %d back-invalidation done with unknown tag %d", mi.tile, tag))
}
