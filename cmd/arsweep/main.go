// Command arsweep runs a configuration sweep (sensitivity/ablation study)
// and emits the result grid as JSON and/or CSV.
//
// Usage:
//
//	arsweep -study flowtable -scale tiny             # JSON + CSV to stdout
//	arsweep -study linkbw -scale small -csv grid.csv -json grid.json
//	arsweep -study flowtable -csv ''                 # JSON only (jq-friendly)
//	arsweep -study flowtable -json ''                # CSV only
//	arsweep -study flowtable -snapshots ckpt/        # persist warm starts
//	arsweep -list                                    # available studies
//
// The default emits both renderings concatenated to stdout (a human-
// readable record); pipe into jq or a CSV reader by skipping the other
// emitter (pass an empty -csv or -json value).
//
// Studies that declare a shared-prefix checkpoint cycle (flowtable) always
// run prefix-shared: points that provably simulate identically up to that
// cycle fork from one checkpoint per family, with results identical to
// plain runs. -snapshots persists those checkpoints, so a repeated study
// skips the shared prefixes entirely.
//
// A sweep point is executed exactly like a standalone system.New + Run with
// the same mutated configuration, so grid cycle counts are directly
// comparable to arsim output. See EXPERIMENTS.md for the built-in studies'
// measured grids.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// emit writes one rendering to path: "-" means stdout, "" means skip.
func emit(path string, render func(io.Writer) error) error {
	switch path {
	case "":
		return nil
	case "-":
		return render(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	studyFlag := flag.String("study", "", "study to run (see -list)")
	scaleFlag := flag.String("scale", "tiny", "input scale (tiny, small, medium)")
	jsonFlag := flag.String("json", "-", "JSON output path (- for stdout, empty to skip)")
	csvFlag := flag.String("csv", "-", "CSV output path (- for stdout, empty to skip)")
	workersFlag := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	snapFlag := flag.String("snapshots", "", "snapshot store directory for shared-prefix checkpoints (persists warm starts across runs)")
	listFlag := flag.Bool("list", false, "list available studies and exit")
	flag.Parse()

	if *listFlag {
		for _, n := range sweep.StudyNames() {
			fmt.Println(n)
		}
		return
	}
	scale, err := workload.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arsweep:", err)
		os.Exit(2)
	}
	grid, err := sweep.StudyGrid(*studyFlag, scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arsweep:", err)
		os.Exit(2)
	}
	grid.Workers = *workersFlag

	// Ctrl-C cancels the pool: queued points never start.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var snaps *store.Store
	if *snapFlag != "" {
		snaps, err = store.Open(*snapFlag, store.Options{SegmentPrefix: "snap"})
		if err != nil {
			fmt.Fprintln(os.Stderr, "arsweep:", err)
			os.Exit(1)
		}
		defer snaps.Close()
	}
	res, st, err := sweep.RunPrefixShared(ctx, grid, nil, snaps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arsweep:", err)
		os.Exit(1)
	}
	if st.Families > 0 {
		fmt.Fprintf(os.Stderr, "arsweep: prefix-share: %d families, %d leader runs, %d store hits, %d forks, %d cold fallbacks\n",
			st.Families, st.LeaderRuns, st.StoreHits, st.ForkResumes, st.ColdFallbacks)
	}
	if err := emit(*jsonFlag, func(w io.Writer) error { return sweep.WriteJSON(w, res) }); err != nil {
		fmt.Fprintln(os.Stderr, "arsweep:", err)
		os.Exit(1)
	}
	if err := emit(*csvFlag, func(w io.Writer) error { return sweep.WriteCSV(w, res) }); err != nil {
		fmt.Fprintln(os.Stderr, "arsweep:", err)
		os.Exit(1)
	}
}
