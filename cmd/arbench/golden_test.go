package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata golden file from the current output")

// TestFigAllMatchesGolden pins `arbench -fig all -scale tiny` byte for
// byte: the rendered tables are pure functions of deterministic runs.
// Regenerate with `go test ./cmd/arbench -run TestFigAllMatchesGolden
// -update` only for an intended change.
func TestFigAllMatchesGolden(t *testing.T) {
	var got bytes.Buffer
	r := &runner{scale: workload.ScaleTiny, out: &got}
	if err := r.runAll("all"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "fig-all-tiny.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-fig all -scale tiny output differs from %s", path)
	}
}
