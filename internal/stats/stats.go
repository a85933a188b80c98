// Package stats provides the measurement accumulators used across the
// simulator: latency breakdowns (Fig 5.2), per-cube heatmaps (Fig 5.3),
// data movement tallies (Fig 5.4) and windowed IPC series (Fig 5.8).
package stats

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// LatencyBreakdown accumulates the three-component update roundtrip latency
// of Fig 5.2: request (injection to arrival at the commit cube), stall
// (arrival to operand issue) and response (operand issue to commit).
type LatencyBreakdown struct {
	Count uint64
	Req   uint64
	Stall uint64
	Resp  uint64
}

// AddSample records one update's component latencies, in cycles.
func (l *LatencyBreakdown) AddSample(req, stall, resp uint64) {
	l.Count++
	l.Req += req
	l.Stall += stall
	l.Resp += resp
}

// Merge adds other's samples into l.
func (l *LatencyBreakdown) Merge(other LatencyBreakdown) {
	l.Count += other.Count
	l.Req += other.Req
	l.Stall += other.Stall
	l.Resp += other.Resp
}

// Means returns the average request, stall and response latencies in cycles.
// With no samples it returns zeros.
func (l *LatencyBreakdown) Means() (req, stall, resp float64) {
	if l.Count == 0 {
		return 0, 0, 0
	}
	n := float64(l.Count)
	return float64(l.Req) / n, float64(l.Stall) / n, float64(l.Resp) / n
}

// TotalMean returns the average total roundtrip latency in cycles.
func (l *LatencyBreakdown) TotalMean() float64 {
	r, s, p := l.Means()
	return r + s + p
}

// Heatmap is a per-cube event accumulator rendered as the paper's 4x4 grids
// (Fig 5.3). Cube c maps to row c/cols, column c%cols.
type Heatmap struct {
	Name  string
	Cols  int
	Cells []uint64
}

// NewHeatmap creates a heatmap with n cells arranged in rows of cols.
func NewHeatmap(name string, n, cols int) *Heatmap {
	return &Heatmap{Name: name, Cols: cols, Cells: make([]uint64, n)}
}

// Add accumulates v events at cube index.
func (h *Heatmap) Add(cube int, v uint64) { h.Cells[cube] += v }

// Total returns the sum over all cells.
func (h *Heatmap) Total() uint64 {
	var t uint64
	for _, c := range h.Cells {
		t += c
	}
	return t
}

// Max returns the largest cell value.
func (h *Heatmap) Max() uint64 {
	var m uint64
	for _, c := range h.Cells {
		if c > m {
			m = c
		}
	}
	return m
}

// Imbalance returns max/mean over the cells, a load-balance figure of merit
// (1.0 = perfectly even). With an empty map it returns 0.
func (h *Heatmap) Imbalance() float64 {
	t := h.Total()
	if t == 0 || len(h.Cells) == 0 {
		return 0
	}
	mean := float64(t) / float64(len(h.Cells))
	return float64(h.Max()) / mean
}

// String renders the grid with right-aligned cell values.
func (h *Heatmap) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (total=%d, imbalance=%.2f)\n", h.Name, h.Total(), h.Imbalance())
	for i, c := range h.Cells {
		fmt.Fprintf(&b, "%10d", c)
		if (i+1)%h.Cols == 0 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// IPCSeries records instructions retired in fixed-size instruction windows,
// timestamped with the cycle at which each window closed (Fig 5.8).
type IPCSeries struct {
	Window     uint64 // instructions per window
	retired    uint64 // within current window
	lastCycle  uint64 // cycle at which last window closed
	TotalInsts uint64
	Points     []IPCPoint
}

// IPCPoint is one window: cumulative instructions at the window boundary and
// the IPC achieved within the window.
type IPCPoint struct {
	Insts uint64
	IPC   float64
}

// NewIPCSeries creates a series with the given window size in instructions.
func NewIPCSeries(window uint64) *IPCSeries {
	if window == 0 {
		window = 1 << 20
	}
	return &IPCSeries{Window: window}
}

// Retire records n retired instructions at the given cycle, closing windows
// as they fill. When one call closes several windows, the cycle span since
// the last closure is apportioned across them (remainder to the earliest),
// so every window's IPC reflects the span it actually covered. The old code
// gave the whole span to the first window and a clamped dc=1 to the rest,
// which recorded IPC = Window for every subsequent window — a bogus spike
// in the trace.
func (s *IPCSeries) Retire(n, cycle uint64) {
	s.TotalInsts += n
	s.retired += n
	if s.retired < s.Window {
		return
	}
	k := s.retired / s.Window
	span := cycle - s.lastCycle
	base, rem := span/k, span%k
	leftover := s.retired - k*s.Window
	for i := uint64(0); i < k; i++ {
		dc := base
		if i < rem {
			dc++
		}
		if dc == 0 {
			dc = 1 // more windows than elapsed cycles: floor at 1 cycle
		}
		s.Points = append(s.Points, IPCPoint{
			Insts: s.TotalInsts - leftover - (k-1-i)*s.Window,
			IPC:   float64(s.Window) / float64(dc),
		})
	}
	s.retired = leftover
	s.lastCycle = cycle
}

// DataMovement tallies on/off-chip traffic in bytes, split the way Fig 5.4
// reports it: normal (plain memory) requests/responses and active
// (Update/Gather/operand) requests/responses.
type DataMovement struct {
	NormReq    uint64
	NormResp   uint64
	ActiveReq  uint64
	ActiveResp uint64
}

// Total returns the sum of the four components.
func (d DataMovement) Total() uint64 {
	return d.NormReq + d.NormResp + d.ActiveReq + d.ActiveResp
}

// Merge adds other into d.
func (d *DataMovement) Merge(other DataMovement) {
	d.NormReq += other.NormReq
	d.NormResp += other.NormResp
	d.ActiveReq += other.ActiveReq
	d.ActiveResp += other.ActiveResp
}

// State streams the series state for checkpointing; the restoring machine
// must have been built with the same window size.
func (s *IPCSeries) State(st *sim.Stream) {
	st.Tag("stats.ipc")
	st.Match(int(s.Window), "IPC window")
	st.U64(&s.retired)
	st.U64(&s.lastCycle)
	st.U64(&s.TotalInsts)
	PointsState(st, &s.Points, "IPC points")
}

// PointsState streams an IPC point list; what names it in decode errors.
func PointsState(st *sim.Stream, pts *[]IPCPoint, what string) {
	n := len(*pts)
	if st.Len(&n, 1<<30, what); st.Decoding() {
		*pts = (*pts)[:0]
	}
	for i := 0; i < n && st.Err() == nil; i++ {
		if st.Decoding() {
			*pts = append(*pts, IPCPoint{})
		}
		st.U64(&(*pts)[i].Insts)
		st.F64(&(*pts)[i].IPC)
	}
}
