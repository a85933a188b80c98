package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// testSize runs every workload's code paths on small inputs: ScaleTiny
// suites, two tiny sweeps and 300 requests.
var testSize = size{fig51a: workload.ScaleTiny, fig51b: workload.ScaleTiny, sweep: workload.ScaleTiny,
	sweeps: 2, requests: 300, calibRuns: 1}

type runKey struct {
	workload string
	seed     uint64
	traced   bool
	rep      int
}

type run struct {
	rec   record
	spans []span
}

var (
	runsMu sync.Mutex
	runs   = map[runKey]run{}
)

// runOnce runs a workload at testSize, memoized so the tests share runs.
func runOnce(t *testing.T, k runKey) run {
	t.Helper()
	runsMu.Lock()
	defer runsMu.Unlock()
	if r, ok := runs[k]; ok {
		return r
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rec, spans := runWorkload(ctx, k.workload, k.seed, 0, k.traced, testSize, t.TempDir())
	if !rec.Correct || rec.Failed != 0 {
		t.Fatalf("%s seed %d: correct=%v failed=%d errors=%v", k.workload, k.seed, rec.Correct, rec.Failed, rec.Errors)
	}
	runs[k] = run{rec, spans}
	return runs[k]
}

type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredMetricsEmitted: every workload BENCHMARK.json declares exists
// and emits every end-to-end metric untraced (nonzero, as declared) and
// every per-layer metric traced, with the declared units.
func TestDeclaredMetricsEmitted(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadOrder, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadOrder)
	}
	for _, w := range workloadOrder {
		plain := runOnce(t, runKey{w, 42, false, 0}).rec
		for _, m := range d.EndToEnd {
			got, ok := plain.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v), want a positive value in %s", w, m.Name, got, ok, m.Unit)
			}
		}
		traced := runOnce(t, runKey{w, 42, true, 0}).rec
		for _, m := range d.PerLayer {
			got, ok := traced.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", w, m.Name, got, ok, m.Unit)
			}
		}
		if len(traced.Metrics) != len(d.PerLayer) {
			t.Errorf("%s: traced run emits %d metrics, BENCHMARK.json declares %d", w, len(traced.Metrics), len(d.PerLayer))
		}
	}
}

// TestDigestsRepeatAndFollowSeed: two runs of one seed produce identical
// op digests; another seed changes them wherever the seed reaches the
// simulated timing (the microbenchmarks' and lud's seed only changes data
// values, which no simulated statistic depends on).
func TestDigestsRepeatAndFollowSeed(t *testing.T) {
	seedMatters := map[string]bool{"fig51a": true, "serve-mixed": true}
	for _, w := range workloadOrder {
		a := runOnce(t, runKey{w, 42, false, 0}).rec
		b := runOnce(t, runKey{w, 42, false, 1}).rec
		if n := diffOps(io.Discard, []record{a}, []record{b}); n != 0 || len(a.Ops) != len(b.Ops) || len(a.Ops) == 0 {
			t.Errorf("%s: same seed, %d ops differ (%d vs %d ops)", w, n, len(a.Ops), len(b.Ops))
		}
		c := runOnce(t, runKey{w, 7, false, 0}).rec
		if n := diffOps(io.Discard, []record{a}, []record{c}); (n > 0) != seedMatters[w] {
			t.Errorf("%s: seeds 42 and 7 differ in %d ops", w, n)
		}
	}
}

// TestSpansNest: every traced span closes, lies within its parent, and has
// a self time between zero and its duration.
func TestSpansNest(t *testing.T) {
	for _, w := range workloadOrder {
		spans := runOnce(t, runKey{w, 42, true, 0}).spans
		if len(spans) == 0 {
			t.Fatalf("%s: traced run recorded no spans", w)
		}
		self := selfTimes(spans)
		for i, s := range spans {
			if s.End < s.Start {
				t.Fatalf("%s: span %d %s never ended or ends before it starts", w, i, s.Name)
			}
			if self[i] < 0 || self[i] > s.End-s.Start {
				t.Errorf("%s: span %d %s self time %v outside [0, %v]", w, i, s.Name, self[i], s.End-s.Start)
			}
			if s.Parent >= 0 {
				p := spans[s.Parent]
				if s.Start < p.Start || s.End > p.End {
					t.Errorf("%s: span %d %s [%v,%v] outside parent %s [%v,%v]", w, i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
				}
			}
		}
	}
}

func TestSelfTimesCountOverlapOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "a", Start: 1 * ms, End: 4 * ms, Parent: 0},
		{Name: "b", Start: 3 * ms, End: 6 * ms, Parent: 0},
		{Name: "c", Start: 8 * ms, End: 9 * ms, Parent: 0},
	}
	got := selfTimes(spans)
	want := []time.Duration{4 * ms, 3 * ms, 3 * ms, 1 * ms}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestDiffListsChangedOps(t *testing.T) {
	a := []record{{Workload: "w", Ops: []op{{ID: "x", Cycles: 1, Digest: "d1"}, {ID: "y", Cycles: 2, Digest: "d2"}}}}
	b := []record{{Workload: "w", Ops: []op{{ID: "x", Cycles: 1, Digest: "d1"}, {ID: "y", Cycles: 2, Digest: "d3"}, {ID: "z", Cycles: 3, Digest: "d4"}}}}
	var out strings.Builder
	if n := diffOps(&out, a, b); n != 1 || !strings.Contains(out.String(), "differs w/y") || !strings.Contains(out.String(), "1 only in the second") {
		t.Fatalf("diffOps = %d:\n%s", n, out.String())
	}
}
