// Command arlint runs the repository's invariant analyzers over Go
// packages and exits non-zero if any diagnostic is reported. It is the
// static half of the correctness story: what the golden matrix, the
// determinism tests and the allocs/op ceiling catch at runtime, arlint
// catches in review.
//
//	arlint ./...          # whole tree (the CI invocation)
//	arlint ./internal/sim # one package
//	arlint -list          # describe the analyzers
//
// The three analyzers and the //ar: annotation grammar are documented in
// DESIGN.md "Static invariants".
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/hashcov"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/load"
)

func main() {
	listFlag := flag.Bool("list", false, "describe the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: arlint [-list] [-only name,...] [packages]\n\n"+
				"Runs the repository's static invariant checkers "+
				"(determinism, hotpath, hashcov)\nover the given "+
				"go-list package patterns (default ./...).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := []*analysis.Analyzer{
		determinism.Analyzer,
		hotpath.Analyzer,
		hashcov.Analyzer,
	}
	if *listFlag {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	analyzers := all
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range splitComma(*only) {
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(os.Stderr, "arlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := load.ModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	units, err := load.New(root).Load(patterns...)
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.Run(units, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "arlint: %d issue(s) in %d package(s)\n", len(diags), len(units))
		os.Exit(1)
	}
}

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "arlint:", err)
	os.Exit(2)
}
