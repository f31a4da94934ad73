package experiment

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// TestGoldenOutputs locks down the rendered output of every registered
// experiment at full size with seed 1: any unintended change to the
// catalog, the simulators, the measurement loop, the theorem math, or
// the table renderer shows up as a golden diff. Each experiment runs
// serially and four workers wide against the same golden, so the worker
// count can never change a table. The list comes from the registry, so
// a new experiment is enrolled automatically and fails until its golden
// is committed.
// Regenerate intentionally with: go test ./internal/experiment -run Golden -update
func TestGoldenOutputs(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", id+".golden")
			for _, workers := range []int{1, 4} {
				tables, err := e.Run(Options{Seed: 1, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got := renderAll(tables)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("workers=%d: output differs from %s; run with -update if intentional\ngot:\n%s", workers, path, got)
				}
			}
		})
	}
}
