package sim

import (
	"fmt"
	"sort"
	"strings"
)

// PendingWork describes one non-quiescent component at the moment a cycle
// budget expired: its registration name and the earliest cycle at which it
// reports work. NextWork <= the error's Cycle means the component claims
// immediate work every cycle yet the machine never drains (the classic
// deadlock suspect); a future NextWork is a timed event the budget cut off.
// Components whose NextWork is Never (quiescent until external input) are
// not listed — in a cross-component deadlock the Pending list is empty and
// the error says so explicitly.
type PendingWork struct {
	Name     string
	NextWork uint64
}

// maxPendingReport caps the components named in the error string; the full
// snapshot stays available on the TimeoutError value.
const maxPendingReport = 8

// TimeoutError is the structured "no completion" error the engine returns
// when RunUntil exhausts its cycle budget. The message keeps the historical
// "sim: no completion after %d cycles (deadlock or undersized budget)"
// prefix and appends a per-component pending-work snapshot so a deadlocked
// configuration (the flowtable study found real ones) is diagnosable from
// the error alone.
type TimeoutError struct {
	// MaxCycles is the exhausted cycle budget.
	MaxCycles uint64
	// Cycle is the absolute clock value at which the run gave up.
	Cycle uint64
	// Pending lists every component with claimed work, sorted by name.
	Pending []PendingWork
}

// Error renders the snapshot; names beyond maxPendingReport collapse into a
// count so deeply wedged machines still produce a readable line.
func (e *TimeoutError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: no completion after %d cycles (deadlock or undersized budget)", e.MaxCycles)
	if len(e.Pending) == 0 {
		b.WriteString("; every component quiescent awaiting external input (cross-component deadlock)")
		return b.String()
	}
	b.WriteString("; pending: ")
	n := len(e.Pending)
	shown := n
	if shown > maxPendingReport {
		shown = maxPendingReport
	}
	for i, p := range e.Pending[:shown] {
		if i > 0 {
			b.WriteString(", ")
		}
		if p.NextWork <= e.Cycle {
			fmt.Fprintf(&b, "%s(now)", p.Name)
		} else {
			fmt.Fprintf(&b, "%s(@%d)", p.Name, p.NextWork)
		}
	}
	if n > shown {
		fmt.Fprintf(&b, " and %d more", n-shown)
	}
	return b.String()
}

// timeoutError snapshots the engine's pending work at the current clock.
// NextWork is side-effect-free by the Idler contract, so probing every slot
// (including parked wake-aware ones) cannot change simulated state; slots
// without an idle hint are always potentially busy and report now. Sorting
// by name makes the error independent of the registration order.
func (e *Engine) timeoutError(maxCycles uint64) *TimeoutError {
	var pending []PendingWork
	for i := range e.slots {
		s := &e.slots[i]
		if s.i == nil {
			pending = append(pending, PendingWork{Name: e.names[i], NextWork: e.cycle})
			continue
		}
		if wk := s.i.NextWork(e.cycle); wk != Never {
			pending = append(pending, PendingWork{Name: e.names[i], NextWork: wk})
		}
	}
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].Name != pending[j].Name {
			return pending[i].Name < pending[j].Name
		}
		return pending[i].NextWork < pending[j].NextWork
	})
	return &TimeoutError{MaxCycles: maxCycles, Cycle: e.cycle, Pending: pending}
}
