// Command arbench regenerates the thesis's evaluation tables and figures
// (Chapter 5) on the simulated machine and prints the series each figure
// plots.
//
// Usage:
//
//	arbench -fig all            # every table and figure
//	arbench -fig 5.1a           # one figure
//	arbench -fig 5.4 -scale tiny
//
// Figure ids: table4.1, 5.1a, 5.1b, 5.2a, 5.2b, 5.3, 5.4, 5.5, 5.6, 5.7,
// 5.8. Each is an entry of the experiments figure table, derived through
// the same service.Server.Figure call that arserved's /figures uses.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/workload"
)

// runner renders figures from the experiments figure table, deriving each
// through an in-process service.Server: its result cache means -fig all
// simulates every run once, however many figures share it.
type runner struct {
	scale workload.Scale
	out   io.Writer
	srv   *service.Server // created on first use
}

// run renders one figure id.
func (r *runner) run(id string) error {
	fig, ok := experiments.FigureByID(id)
	if !ok {
		return fmt.Errorf("unknown figure %q", id)
	}
	if r.srv == nil {
		r.srv = service.New(service.Options{})
	}
	data, err := r.srv.Figure(context.Background(), id, r.scale)
	if err != nil {
		return err
	}
	fig.Render(r.out, data)
	return nil
}

// runAll renders the -fig selection: one id, or every table entry for
// "all", each followed by a blank line.
func (r *runner) runAll(sel string) error {
	ids := []string{sel}
	if sel == "all" {
		ids = figureIDs()
	}
	for _, id := range ids {
		if err := r.run(id); err != nil {
			return err
		}
		fmt.Fprintln(r.out)
	}
	return nil
}

// figureIDs lists the figure table's ids in thesis order.
func figureIDs() []string {
	var ids []string
	for _, f := range experiments.Figures() {
		ids = append(ids, f.ID)
	}
	return ids
}

func main() {
	figFlag := flag.String("fig", "all", "figure to regenerate (all, "+strings.Join(figureIDs(), ", ")+")")
	scaleFlag := flag.String("scale", "small", "input scale (tiny, small, medium)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the figure runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	scale, err := workload.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "arbench:", err)
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "arbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "arbench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "arbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "arbench:", err)
			}
		}()
	}
	r := &runner{scale: scale, out: os.Stdout}
	if err := r.runAll(*figFlag); err != nil {
		fmt.Fprintln(os.Stderr, "arbench:", err)
		os.Exit(1)
	}
}
