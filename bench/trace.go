package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Times are offsets from the tracer's origin.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int // index of the enclosing span, -1 for a root
	Op         int // the workload operation the span belongs to
	Lane       int // display track: one per concurrent client
}

// tracer keeps spans in memory until the benchmark ends. A disabled tracer
// records nothing and every method is a cheap no-op, so workloads call it
// unconditionally.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// root opens a span with no parent and returns its id (-1 when disabled).
func (t *tracer) root(name string, lane, op int) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin), End: -1, Parent: -1, Op: op, Lane: lane})
	return len(t.spans) - 1
}

// add records a finished span inside parent, on the parent's lane and op,
// whose start and end were taken elsewhere (a callback marks the boundary
// between two phases of a call).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if !t.on || parent < 0 {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin), Parent: parent, Op: p.Op, Lane: p.Lane})
	t.mu.Unlock()
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range ks {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	lanes := map[int]bool{}
	for i, s := range spans {
		lanes[s.Lane] = true
		evs = append(evs, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op},
		})
	}
	for lane := range lanes {
		evs = append(evs, event{Name: "thread_name", Ph: "M", PID: 1, TID: lane,
			Args: map[string]any{"name": fmt.Sprintf("lane %d", lane)}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
