package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestLatencyBreakdownMeans(t *testing.T) {
	var l LatencyBreakdown
	l.AddSample(10, 20, 30)
	l.AddSample(20, 40, 50)
	r, s, p := l.Means()
	if r != 15 || s != 30 || p != 40 {
		t.Fatalf("means = %v %v %v", r, s, p)
	}
	if l.TotalMean() != 85 {
		t.Fatalf("total mean = %v", l.TotalMean())
	}
	var empty LatencyBreakdown
	if r, _, _ := empty.Means(); r != 0 {
		t.Fatal("empty breakdown must report zeros")
	}
}

func TestLatencyBreakdownMerge(t *testing.T) {
	var a, b LatencyBreakdown
	a.AddSample(1, 2, 3)
	b.AddSample(3, 4, 5)
	a.Merge(b)
	if a.Count != 2 || a.Req != 4 || a.Stall != 6 || a.Resp != 8 {
		t.Fatalf("merged = %+v", a)
	}
}

func TestHeatmap(t *testing.T) {
	h := NewHeatmap("updates", 16, 4)
	h.Add(0, 10)
	h.Add(5, 30)
	if h.Total() != 40 || h.Max() != 30 {
		t.Fatalf("total=%d max=%d", h.Total(), h.Max())
	}
	// imbalance = max / mean = 30 / 2.5 = 12
	if h.Imbalance() != 12 {
		t.Fatalf("imbalance = %v", h.Imbalance())
	}
	if !strings.Contains(h.String(), "updates") {
		t.Fatal("render missing name")
	}
}

func TestHeatmapEmptyImbalance(t *testing.T) {
	h := NewHeatmap("empty", 16, 4)
	if h.Imbalance() != 0 {
		t.Fatal("empty heatmap imbalance must be 0")
	}
}

func TestHeatmapImbalanceBounds(t *testing.T) {
	f := func(cells [16]uint16) bool {
		h := NewHeatmap("p", 16, 4)
		for i, c := range cells {
			h.Add(i, uint64(c))
		}
		im := h.Imbalance()
		if h.Total() == 0 {
			return im == 0
		}
		return im >= 1 && im <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPCSeriesWindows(t *testing.T) {
	s := NewIPCSeries(100)
	s.Retire(50, 100)
	if len(s.Points) != 0 {
		t.Fatal("window closed early")
	}
	s.Retire(50, 200) // closes at cycle 200: 100 insts / 200 cycles
	if len(s.Points) != 1 {
		t.Fatalf("points = %d", len(s.Points))
	}
	if s.Points[0].IPC != 0.5 {
		t.Fatalf("ipc = %v", s.Points[0].IPC)
	}
	s.Retire(250, 300) // closes two more windows across a 100-cycle span
	if len(s.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(s.Points))
	}
	if s.TotalInsts != 350 {
		t.Fatalf("total = %d", s.TotalInsts)
	}
	// The 100-cycle span is apportioned 50/50: both windows record IPC 2,
	// not (IPC 1, IPC 100) as the old whole-span-then-clamp logic did.
	if s.Points[1].IPC != 2 || s.Points[2].IPC != 2 {
		t.Fatalf("apportioned IPCs = %v, %v, want 2, 2", s.Points[1].IPC, s.Points[2].IPC)
	}
	if s.Points[1].Insts != 200 || s.Points[2].Insts != 300 {
		t.Fatalf("window boundaries = %d, %d, want 200, 300", s.Points[1].Insts, s.Points[2].Insts)
	}
}

// TestIPCSeriesMultiWindowNoSpike is the regression test for the Fig 5.8
// spike: closing k>1 windows in one call must never record the
// spike signature IPC == Window unless the span is genuinely that short.
func TestIPCSeriesMultiWindowNoSpike(t *testing.T) {
	s := NewIPCSeries(100)
	s.Retire(500, 1000) // five windows over 1000 cycles: 200 cycles each
	if len(s.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(s.Points))
	}
	for i, p := range s.Points {
		if p.IPC != 0.5 {
			t.Fatalf("window %d IPC = %v, want 0.5", i, p.IPC)
		}
		if want := uint64(100 * (i + 1)); p.Insts != want {
			t.Fatalf("window %d boundary = %d, want %d", i, p.Insts, want)
		}
	}
	// Uneven span: 3 windows over 100 cycles -> 34, 33, 33.
	s2 := NewIPCSeries(100)
	s2.Retire(300, 100)
	want := []float64{100.0 / 34, 100.0 / 33, 100.0 / 33}
	for i, p := range s2.Points {
		if p.IPC != want[i] {
			t.Fatalf("uneven window %d IPC = %v, want %v", i, p.IPC, want[i])
		}
	}
	// Partial leftover stays pending and closes with the next span.
	s3 := NewIPCSeries(100)
	s3.Retire(250, 100) // two windows, 50 pending
	if len(s3.Points) != 2 || s3.TotalInsts != 250 {
		t.Fatalf("points = %d total = %d", len(s3.Points), s3.TotalInsts)
	}
	s3.Retire(50, 200) // pending window closes over the 100-cycle span
	if len(s3.Points) != 3 || s3.Points[2].IPC != 1 || s3.Points[2].Insts != 300 {
		t.Fatalf("leftover window = %+v", s3.Points[len(s3.Points)-1])
	}
}

func TestDataMovement(t *testing.T) {
	var d DataMovement
	d.NormReq, d.ActiveReq, d.NormResp, d.ActiveResp = 1, 2, 3, 4
	if d.Total() != 10 {
		t.Fatalf("total = %d", d.Total())
	}
	var e DataMovement
	e.Merge(d)
	e.Merge(d)
	if e.Total() != 20 {
		t.Fatalf("merged total = %d", e.Total())
	}
}
