// Command bench is the repository's benchmark: four workloads that drive
// the simulator, the sweep engine and the simulation service end to end,
// each printing its end-to-end metrics (or, traced, its per-layer metrics)
// and checking its outputs. BENCHMARK.json at the repository root declares
// the workloads and metrics; README.md explains them.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload fig51a --seed 42 --seconds 20 --trace 0
//	bash bench/run.sh --seed 42 --out ledger.json     # every workload, one child process each
//	bash bench/run.sh --seed 42 --trace 1 --out l.json  # ... plus a traced repeat of each
//	bash bench/run.sh --diff A.json B.json             # ops whose results differ
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/workload"
)

// workloads maps each workload name to its body. BENCHMARK.json's "why"
// lines say why each exists.
var workloads = map[string]func(*env, *result){
	"fig51a":          func(e *env, r *result) { runSuite(e, r, workload.Benchmarks(), e.size.fig51a) },
	"fig51b":          func(e *env, r *result) { runSuite(e, r, workload.Microbenchmarks(), e.size.fig51b) },
	"sweep-flowtable": runSweep,
	"serve-mixed":     runServe,
}

var workloadOrder = []string{"fig51a", "fig51b", "sweep-flowtable", "serve-mixed"}

// spanLayers are the layers traced runs attribute host time to: one span
// name per public call the benchmark makes. Each becomes a per-layer
// "<name>.self_pct" metric, its share of the self time of all spans.
var spanLayers = []string{
	"system.new", "system.run", "experiments.fig51",
	"sweep.run_prefix_shared", "system.run_to_checkpoint", "system.snapshot",
	"system.restore", "system.resume_run",
	"service.request", "service.queue_wait", "service.execute",
	"store.append", "store.sync", "store.open", "service.new",
}

// layerCounts are the per-layer counts every traced run reports; a
// workload that does not reach (or cannot observe) a layer reports 0.
var layerCounts = []string{
	"sim.cycles", "sim.skipped_ticks", "sim.jumped_cycles",
	"cpu.retired", "cpu.rob_full_cycles", "cpu.mem_stalls", "cpu.offload_stalls",
	"cache.l1_accesses", "cache.l1_misses", "cache.l2_accesses", "cache.l2_misses",
	"dram.accesses", "core.updates_committed", "core.operand_buf_stalls",
	"core.flow_table_stalls", "core.inject_stalls", "core.coord_port_stalls",
	"hmc.vault_accesses", "network.hop_bytes",
	"sweep.families", "sweep.leader_runs", "sweep.fork_resumes", "sweep.cold_fallbacks",
	"system.snapshot_bytes", "store.bytes_written",
	"service.cache_hits", "service.cache_misses", "service.sims_started", "service.store_put_failures",
}

// deadline bounds one workload run; operations still running then fail.
const deadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload to run (fig51a, fig51b, sweep-flowtable, serve-mixed); empty runs each in its own child process")
	seed := flag.Uint64("seed", 42, "seed for every simulated machine's Config.Seed and for the request generator")
	secs := flag.Float64("seconds", 20, "measurement time per workload")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	out := flag.String("out", "", "write the full result (ops, digests, host metadata, details) as JSON to this file")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory for the Chrome trace-event files of traced runs")
	diff := flag.Bool("diff", false, "compare two result files given as arguments and list every op whose results differ")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fatalf("-diff takes two result files")
		}
		a, err := loadRecords(flag.Arg(0))
		if err != nil {
			fatalf("%v", err)
		}
		b, err := loadRecords(flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if diffOps(os.Stdout, a, b) > 0 {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *name == "" {
		if err := runAll(*seed, *secs, *trace == 1, *out); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if _, ok := workloads[*name]; !ok {
		fatalf("unknown workload %q (want one of %v)", *name, workloadOrder)
	}

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	rec, spans := runWorkload(ctx, *name, *seed, *secs, *trace == 1, fullSize, os.TempDir())
	if rec.Traced {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.trace.json", rec.Workload, rec.Seed))
		if err := writeChromeTrace(path, spans); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s\n", path)
	}
	if *out != "" {
		if err := writeJSONFile(*out, rec); err != nil {
			fatalf("%v", err)
		}
	}
	report(os.Stdout, rec)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload runs one workload in this process and returns its record and,
// when traced, its spans.
func runWorkload(ctx context.Context, name string, seed uint64, secs float64, traced bool, sz size, tmpDir string) (record, []span) {
	e := &env{ctx: ctx, seed: seed, seconds: secs, size: sz, tr: newTracer(traced), tmpDir: tmpDir}
	rec := record{Workload: name, Seed: seed, Seconds: secs, Traced: traced, Host: hostInfo(),
		Start: time.Now().UTC().Format(time.RFC3339)}
	res := newResult()
	rec.Calibration[0] = calibrate(ctx, sz.calibRuns)
	workloads[name](e, res)
	res.e2e["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	rec.Calibration[1] = calibrate(ctx, sz.calibRuns)

	spans := e.tr.spans
	if traced {
		self := map[string][]float64{}
		total := 0.0
		for i, d := range selfTimes(spans) {
			self[spans[i].Name] = append(self[spans[i].Name], ms(d))
			total += ms(d)
		}
		for _, l := range spanLayers {
			sum := 0.0
			for _, x := range self[l] {
				sum += x
			}
			res.layer[l+".self_pct"] = metric{100 * ratio(sum, total), "%"}
			if len(self[l]) > 0 {
				res.details[l+".self_s"] = sum / 1000
				res.details[l+".self_p50_ms"] = median(self[l])
				res.details[l+".spans"] = float64(len(self[l]))
			}
		}
		for _, c := range layerCounts {
			if _, ok := res.layer[c]; !ok {
				res.layer[c] = metric{0, "count"}
			}
		}
		if _, ok := res.layer["sweep.fork_ratio"]; !ok {
			res.layer["sweep.fork_ratio"] = metric{0, "ratio"}
		}
	}

	rec.EndToEnd, rec.Metrics, rec.Details = res.e2e, res.e2e, res.details
	if traced {
		rec.Metrics = res.layer
	}
	rec.Attempted, rec.Failed, rec.Errors, rec.Ops = res.attempted, res.failed, res.errors, res.ops
	if rec.Attempted < max(rec.Failed, 1) {
		// The workload failed before its first operation.
		rec.Attempted, rec.Failed = max(rec.Failed, 1), max(rec.Failed, 1)
	}
	rec.Correct = rec.Failed == 0 && len(rec.Errors) == 0
	return rec, spans
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints every metric by name and unit, any errors, and as the last
// line the JSON summary.
func report(w io.Writer, rec record) {
	kind := "end-to-end"
	if rec.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s seed %d: %d ops, %d failed, %s metrics:\n", rec.Workload, rec.Seed, rec.Attempted, rec.Failed, kind)
	printMetrics(w, rec.Metrics)
	for _, e := range rec.Errors {
		fmt.Fprintf(os.Stderr, "error: %s\n", e)
	}
	b, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Fprintln(w, string(b))
}

// runAll runs every workload, each in a fresh child process so heap state
// and peak RSS belong to that workload, and writes the ledger to out. With
// trace, each workload is repeated traced and the tracing overhead is the
// traced end-to-end values relative to the untraced ones.
func runAll(seed uint64, secs float64, trace bool, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	l := ledger{Seed: seed, Host: hostInfo(), Start: time.Now().UTC().Format(time.RFC3339)}
	modes := []int{0}
	if trace {
		modes = append(modes, 1)
		l.TracingOverhead = map[string]map[string]float64{}
	}
	for _, name := range workloadOrder {
		var untraced record
		for _, mode := range modes {
			rec, err := runChild(self, name, seed, secs, mode)
			if err != nil {
				return err
			}
			l.Records = append(l.Records, rec)
			if mode == 0 {
				untraced = rec
				continue
			}
			ov := map[string]float64{}
			for k, m := range untraced.EndToEnd {
				ov[k] = ratio(rec.EndToEnd[k].Value, m.Value) - 1
			}
			l.TracingOverhead[name] = ov
		}
	}
	for _, n := range sortedKeys(l.TracingOverhead) {
		fmt.Printf("tracing overhead %s:", n)
		for _, k := range sortedKeys(l.TracingOverhead[n]) {
			fmt.Printf(" %s %+.1f%%", k, 100*l.TracingOverhead[n][k])
		}
		fmt.Println()
	}
	if out == "" {
		return nil
	}
	return writeJSONFile(out, l)
}

// runChild runs one workload in a child process, echoing its output with
// the workload's name as prefix, and reads back its record.
func runChild(self, name string, seed uint64, secs float64, trace int) (record, error) {
	f, err := os.CreateTemp("", "bench-record-*.json")
	if err != nil {
		return record{}, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(trace), "-out", path)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return record{}, err
	}
	if err := cmd.Start(); err != nil {
		return record{}, err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		fmt.Printf("[%s] %s\n", name, sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		return record{}, fmt.Errorf("%s: %w", name, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return record{}, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return record{}, fmt.Errorf("%s: %w", name, err)
	}
	return rec, nil
}
