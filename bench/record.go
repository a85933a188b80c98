package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// op is one completed operation's output fingerprint: its simulated cycle
// count and an FNV-64a digest of its results, so two records of the same
// seed can be compared op by op (-diff).
type op struct {
	ID     string  `json:"id"`
	Cycles uint64  `json:"cycles"`
	Digest string  `json:"digest"`
	HostS  float64 `json:"host_s,omitempty"`
}

// host identifies the build and the machine a record was measured on.
type host struct {
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified,omitempty"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// record is one workload invocation's full result. The last line of the
// benchmark's standard output carries Correct, Attempted, Failed and
// Metrics; the rest goes to the -out file.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Host      host              `json:"host"`
	Start     string            `json:"start"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// EndToEnd holds the end-to-end metrics in every record; Metrics
	// repeats them for an untraced run and holds the per-layer metrics for
	// a traced one.
	EndToEnd map[string]metric `json:"end_to_end"`
	// Details holds workload-specific numbers that are not contract
	// metrics: per-class latency percentiles, layer self times, sample
	// counts, figure speedups.
	Details map[string]float64 `json:"details,omitempty"`
	// Calibration is the host-speed probe (median ms of lud/ARF-tid at
	// ScaleTiny) at the workload's start and end. It is metadata only.
	Calibration [2]float64 `json:"calibration_ms"`
	Errors      []string   `json:"errors,omitempty"`
	Ops         []op       `json:"ops"`
}

// result accumulates a workload's outcome as it runs.
type result struct {
	attempted, failed int
	errors            []string
	e2e               map[string]metric
	layer             map[string]metric
	details           map[string]float64
	ops               []op
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}, details: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few errors.
func (r *result) fail(err error) {
	r.failed++
	if len(r.errors) < 20 {
		r.errors = append(r.errors, err.Error())
	}
}

// count adds v to the per-layer count name.
func (r *result) count(name string, v float64) {
	r.layer[name] = metric{r.layer[name].Value + v, "count"}
}

// sortOps orders ops by id.
func sortOps(ops []op) []op {
	sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
	return ops
}

// check records a failed output check that is not an operation of its own.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok && len(r.errors) < 20 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

func hostInfo() host {
	h := host{Revision: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), OS: runtime.GOOS, Arch: runtime.GOARCH}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// digest is the FNV-64a hash of v's JSON encoding.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, and 0 for an empty slice (a workload whose
// operations all failed still prints numbers; its result is not correct).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(w io.Writer, m map[string]metric) {
	for _, n := range sortedKeys(m) {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ledger is one invocation over every workload: the records of its
// untraced runs and, with tracing, of the traced repeats.
type ledger struct {
	Seed    uint64   `json:"seed"`
	Host    host     `json:"host"`
	Start   string   `json:"start"`
	Records []record `json:"records"`
	// TracingOverhead is, per workload and end-to-end metric, the traced
	// run's value over the untraced run's value, minus one.
	TracingOverhead map[string]map[string]float64 `json:"tracing_overhead,omitempty"`
}

// loadRecords reads a ledger file or a single record file.
func loadRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, ok := probe["records"]; ok {
		var l ledger
		if err := json.Unmarshal(b, &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return l.Records, nil
	}
	var r record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []record{r}, nil
}

// diffOps lists every op present in both inputs whose cycles or digest
// differ, and counts ops present in only one (time-bounded workloads
// complete different numbers of operations). It returns the number of
// differing ops.
func diffOps(w io.Writer, a, b []record) int {
	index := func(rs []record) map[string]op {
		m := map[string]op{}
		for _, r := range rs {
			if r.Traced {
				continue
			}
			for _, o := range r.Ops {
				m[r.Workload+"/"+o.ID] = o
			}
		}
		return m
	}
	ia, ib := index(a), index(b)
	var ids []string
	for id := range ia {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	differ, onlyA, same := 0, 0, 0
	for _, id := range ids {
		oa := ia[id]
		ob, ok := ib[id]
		if !ok {
			onlyA++
			continue
		}
		if oa.Digest != ob.Digest || oa.Cycles != ob.Cycles {
			differ++
			fmt.Fprintf(w, "differs %s: cycles %d vs %d, digest %s vs %s\n", id, oa.Cycles, ob.Cycles, oa.Digest, ob.Digest)
		} else {
			same++
		}
	}
	onlyB := 0
	for id := range ib {
		if _, ok := ia[id]; !ok {
			onlyB++
		}
	}
	fmt.Fprintf(w, "%d ops identical, %d differ, %d only in the first, %d only in the second\n", same, differ, onlyA, onlyB)
	return differ
}
