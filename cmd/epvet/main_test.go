package main

import (
	"os"
	"path/filepath"
	"testing"

	"energyprop/internal/lint"
)

// TestBaselineFailsOnNewSuppression: internal/cli carries one droppederr
// suppression and no finding. Against a baseline that records no
// suppression the run fails; against one that records it, it passes.
func TestBaselineFailsOnNewSuppression(t *testing.T) {
	rules := []lint.Rule{lint.DroppedErr{}}
	for _, tc := range []struct {
		suppressed, want int
	}{
		{suppressed: 0, want: 1},
		{suppressed: 1, want: 0},
	} {
		base, err := lint.Report{Suppressed: tc.suppressed, Findings: []lint.JSONFinding{}}.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, base, 0o644); err != nil {
			t.Fatal(err)
		}
		code, err := run([]string{"../../internal/cli"}, rules, false, path)
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.want {
			t.Errorf("baseline with %d suppressed: exit %d, want %d", tc.suppressed, code, tc.want)
		}
	}
}
