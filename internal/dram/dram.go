// Package dram models DRAM bank timing: row-buffer management with
// tRCD/tRAS/tRP/tCL/tBL constraints, a shared data bus, and an FR-FCFS
// scheduler. The same model serves the DDR baseline (4 channels, 4 ranks,
// 64 banks/rank, Table 4.1) and — with different geometry — the DRAM layers
// behind each HMC vault controller.
package dram

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// Timing holds the DRAM timing parameters of Table 4.1, expressed in DRAM
// command-clock cycles, plus the conversion factor to simulator cycles.
type Timing struct {
	RCD uint64 // activate to column command
	RAS uint64 // activate to precharge
	RP  uint64 // precharge to activate
	CL  uint64 // column command to first data
	BL  uint64 // burst length (data bus beats)
	RR  uint64 // rank-to-rank switch penalty

	// CyclesPerTick converts DRAM cycles to simulator (CPU) cycles. The
	// baseline DDR command clock is modeled at half the 2 GHz core clock.
	CyclesPerTick uint64
}

// DefaultDDRTiming returns the Table 4.1 baseline parameters.
func DefaultDDRTiming() Timing {
	return Timing{RCD: 14, RAS: 34, RP: 14, CL: 14, BL: 4, RR: 1, CyclesPerTick: 2}
}

// DefaultVaultTiming returns the timing used behind HMC vault controllers.
// TSV-attached DRAM layers use the same core timing family but the vault
// clock matches the 1 GHz logic-layer clock of Table 4.1.
func DefaultVaultTiming() Timing {
	return Timing{RCD: 14, RAS: 34, RP: 14, CL: 14, BL: 2, RR: 1, CyclesPerTick: 2}
}

// Request is one memory access presented to a bank set. Completion is
// reported through the bank set's Done hook with the request's Token; the
// caller keeps any per-access state in its own table keyed by token.
type Request struct {
	Write bool
	Bank  int    // flat bank index within the bank set
	Row   uint64 // row within the bank
	// Token identifies the access to the bank set's Done hook.
	Token uint64

	doneAt uint64
}

// Stats counts row-buffer outcomes and traffic for one bank set.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	QueueFullRej uint64
}

// counters lists the Stats fields in snapshot order.
func (s *Stats) counters() []*uint64 {
	return []*uint64{&s.Reads, &s.Writes, &s.RowHits, &s.RowMisses,
		&s.RowConflicts, &s.QueueFullRej}
}

type bankState struct {
	hasOpenRow  bool
	openRow     uint64
	freeAt      uint64
	activatedAt uint64
}

// BankSet is a group of banks behind one controller sharing a data bus,
// with a bounded request queue scheduled FR-FCFS (row hits first, then
// oldest).
type BankSet struct {
	timing    Timing
	banks     []bankState
	queue     []Request
	inflight  []Request
	maxQueue  int
	busFreeAt uint64
	// earliestDone is the exact minimum doneAt over inflight (sim.Never
	// when empty), so the per-tick completion scan and the idle hint are
	// O(1) while every transfer is still on the bus. banksBlockedUntil
	// caches the earliest cycle any queued request's bank frees up after a
	// scheduler pass found every candidate bank busy; until then (and
	// absent new arrivals) re-scanning the queue would pick nothing.
	earliestDone      uint64
	banksBlockedUntil uint64

	// Done receives each request's Token exactly once, at the simulator
	// cycle its data transfer completes.
	Done func(token, cycle uint64)

	Stats Stats
}

// NewBankSet creates a bank set with n banks, the given queue depth and Done.
func NewBankSet(n int, timing Timing, maxQueue int, done func(token, cycle uint64)) *BankSet {
	return &NewBankSets(1, n, timing, maxQueue, done)[0]
}

// NewBankSets creates count bank sets of n banks each, sharing the queue
// depth and Done. The sets share one allocation and their banks a second.
func NewBankSets(count, n int, timing Timing, maxQueue int, done func(token, cycle uint64)) []BankSet {
	if n <= 0 {
		panic("dram: bank set needs at least one bank")
	}
	sets := make([]BankSet, count)
	banks := make([]bankState, count*n)
	for i := range sets {
		sets[i] = BankSet{
			timing:       timing,
			banks:        banks[i*n : (i+1)*n : (i+1)*n],
			maxQueue:     maxQueue,
			earliestDone: sim.Never,
			Done:         done,
		}
	}
	return sets
}

// Enqueue presents a request by value; it reports false when the queue is
// full (the caller must retry, modeling controller backpressure).
func (b *BankSet) Enqueue(r Request) bool {
	if len(b.queue) >= b.maxQueue {
		b.Stats.QueueFullRej++
		return false
	}
	if r.Bank < 0 || r.Bank >= len(b.banks) {
		panic("dram: request bank out of range")
	}
	b.queue = append(b.queue, r)
	b.banksBlockedUntil = 0 // new candidate: the scheduler must re-scan
	return true
}

// Pending reports queued plus in-flight requests.
func (b *BankSet) Pending() int { return len(b.queue) + len(b.inflight) }

// NextWork is the bank set's idle hint, which the Controller's
// sim.Component NextWork delegates to: with requests queued it reports
// work every cycle, a conservative hint (while banksBlockedUntil is ahead,
// Tick only retires transfers due by earliestDone); with only in-flight
// transfers the next work is the earliest completion; empty bank sets are
// quiescent until Enqueue.
func (b *BankSet) NextWork(now uint64) uint64 {
	if len(b.queue) > 0 {
		return now
	}
	if len(b.inflight) == 0 {
		return sim.Never
	}
	if b.earliestDone <= now {
		return now
	}
	return b.earliestDone
}

// Tick advances the bank set one simulator cycle: completes finished
// transfers and issues at most one new command (FR-FCFS).
func (b *BankSet) Tick(cycle uint64) {
	// Complete transfers; skip the scan entirely while the earliest
	// completion is still in the future.
	if b.earliestDone <= cycle {
		for i := 0; i < len(b.inflight); {
			r := b.inflight[i]
			if r.doneAt <= cycle {
				b.inflight[i] = b.inflight[len(b.inflight)-1]
				b.inflight = b.inflight[:len(b.inflight)-1]
				b.Done(r.Token, cycle)
				continue
			}
			i++
		}
		b.earliestDone = sim.Never
		for _, r := range b.inflight {
			if r.doneAt < b.earliestDone {
				b.earliestDone = r.doneAt
			}
		}
	}
	if len(b.queue) == 0 {
		return
	}
	if b.banksBlockedUntil > cycle {
		return // every candidate bank still busy; nothing to re-scan
	}
	// FR-FCFS: oldest row hit whose bank is free; otherwise oldest request
	// whose bank is free.
	pick := -1
	minFree := ^uint64(0)
	for i, r := range b.queue {
		bank := &b.banks[r.Bank]
		if bank.freeAt > cycle {
			if bank.freeAt < minFree {
				minFree = bank.freeAt
			}
			continue
		}
		if bank.hasOpenRow && bank.openRow == r.Row {
			pick = i
			break
		}
		if pick < 0 {
			pick = i
		}
	}
	if pick < 0 {
		b.banksBlockedUntil = minFree
		return
	}
	r := b.queue[pick]
	copy(b.queue[pick:], b.queue[pick+1:])
	b.queue = b.queue[:len(b.queue)-1]
	b.issue(r, cycle)
}

func (b *BankSet) issue(r Request, cycle uint64) {
	t := &b.timing
	bank := &b.banks[r.Bank]
	start := cycle
	if bank.freeAt > start {
		start = bank.freeAt
	}

	var commandLat uint64
	switch {
	case bank.hasOpenRow && bank.openRow == r.Row:
		b.Stats.RowHits++
		commandLat = t.CL * t.CyclesPerTick
	case !bank.hasOpenRow:
		b.Stats.RowMisses++
		commandLat = (t.RCD + t.CL) * t.CyclesPerTick
		bank.activatedAt = start
	default:
		b.Stats.RowConflicts++
		// Precharge may not begin before tRAS expires for the open row.
		rasReady := bank.activatedAt + t.RAS*t.CyclesPerTick
		if rasReady > start {
			start = rasReady
		}
		commandLat = (t.RP + t.RCD + t.CL) * t.CyclesPerTick
		bank.activatedAt = start + t.RP*t.CyclesPerTick
	}
	burst := t.BL * t.CyclesPerTick

	dataStart := start + commandLat
	if dataStart < b.busFreeAt {
		// Wait for the shared data bus.
		delta := b.busFreeAt - dataStart
		start += delta
		dataStart += delta
	}
	done := dataStart + burst

	bank.hasOpenRow = true
	bank.openRow = r.Row
	bank.freeAt = done
	b.busFreeAt = done
	r.doneAt = done

	if r.Write {
		b.Stats.Writes++
	} else {
		b.Stats.Reads++
	}
	if done < b.earliestDone {
		b.earliestDone = done
	}
	b.inflight = append(b.inflight, r)
}

// Controller is a DDR channel controller for the baseline system: it maps
// physical addresses onto its rank/bank geometry and owns one BankSet.
type Controller struct {
	Geom  mem.DRAMGeometry
	Banks *BankSet

	// waker invalidates the engine's cached idle hint when a new access
	// arrives (the controller's only external input).
	waker *sim.Waker
}

// SetWaker implements sim.Component.
func (c *Controller) SetWaker(w *sim.Waker) { c.waker = w }

// NewController builds a channel controller; done is its banks' Done hook.
func NewController(geom mem.DRAMGeometry, timing Timing, queue int, done func(token, cycle uint64)) *Controller {
	return &Controller{
		Geom:  geom,
		Banks: NewBankSet(geom.RanksPerChan*geom.BanksPerRank, timing, queue, done),
	}
}

// Access enqueues a block access for pa, identified by token at
// completion; it reports false on backpressure.
func (c *Controller) Access(pa mem.PAddr, write bool, token uint64) bool {
	c.waker.Wake()
	flat := c.Geom.RankOf(pa)*c.Geom.BanksPerRank + c.Geom.BankOf(pa)
	return c.Banks.Enqueue(Request{
		Write: write,
		Bank:  flat,
		Row:   c.Geom.RowOf(pa),
		Token: token,
	})
}

// Tick advances the controller one cycle.
func (c *Controller) Tick(cycle uint64) { c.Banks.Tick(cycle) }

// NextWork implements sim.Component by delegating to the bank set.
func (c *Controller) NextWork(now uint64) uint64 { return c.Banks.NextWork(now) }
