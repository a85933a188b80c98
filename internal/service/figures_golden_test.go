package service

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata golden files from the current output")

// TestFiguresMatchGolden pins every /figures data table at ScaleTiny byte
// for byte: figure derivations are pure functions of deterministic runs, so
// any drift in a value, a field name or the JSON shape is a regression.
// Regenerate with `go test ./internal/service -run TestFiguresMatchGolden
// -update` only for an intended change.
func TestFiguresMatchGolden(t *testing.T) {
	s := New(Options{})
	for _, id := range FigureIDs() {
		data, err := s.Figure(context.Background(), id, workload.ScaleTiny)
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		got, err := json.MarshalIndent(data, "", "  ")
		if err != nil {
			t.Fatalf("figure %s: %v", id, err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", "figure-"+id+".json")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("figure %s: data differs from %s", id, path)
		}
	}
}
