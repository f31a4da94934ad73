package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestTreeIsClean runs the full rule registry over the real source tree.
// Because it lives inside `go test ./...`, tier-1 automatically enforces
// the determinism and measurement contracts on every PR: any new
// wall-clock read, unseeded rand, loop-derived seed, exact float
// comparison, dropped error, or uncancellable fan-out fails the build
// with a file:line finding.
func TestTreeIsClean(t *testing.T) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(root, module).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the walker is missing most of the tree", len(pkgs))
	}
	findings, sum := Run(pkgs, AllRules())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	t.Logf("epvet: %d packages, %d files, %d findings, %d suppressed",
		sum.Packages, sum.Files, sum.Reported, sum.Suppressed)
}

// TestSuppressionsAreMinimal audits every //lint:ignore directive in
// the real tree: each one must name a rule that actually fires on its
// target line (checked against the raw, pre-suppression findings) and
// carry a non-empty reason. A suppression that survives a fix to the
// code it was excusing fails here — suppressions cannot rot silently.
func TestSuppressionsAreMinimal(t *testing.T) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(root, module).LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	res := RunAll(pkgs, AllRules())
	rawAt := map[string]bool{}
	for _, f := range res.Raw {
		rawAt[fmt.Sprintf("%s:%d:%s", f.Pos.Filename, f.Pos.Line, f.Rule)] = true
	}
	if len(res.Directives) == 0 {
		t.Fatal("no //lint:ignore directives found; the directive scanner is broken")
	}
	for _, d := range res.Directives {
		if d.Reason == "" {
			t.Errorf("%s: //lint:ignore %s has no reason", d.Pos, d.Rule)
			continue
		}
		if !rawAt[fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Target, d.Rule)] {
			t.Errorf("%s: //lint:ignore %s suppresses nothing: no raw %s finding on line %d — delete the stale directive",
				d.Pos, d.Rule, d.Rule, d.Target)
		}
	}
	t.Logf("audited %d suppressions against %d raw findings", len(res.Directives), len(res.Raw))
}

// TestModuleStaysStdlibOnly pins the repo's no-dependencies invariant:
// the lint engine itself, the simulators, and the service must keep
// building offline from a bare Go toolchain. CI repeats this check as a
// workflow step so it fails loudly even if tests are skipped.
func TestModuleStaysStdlibOnly(t *testing.T) {
	root, _, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	if m := regexp.MustCompile(`(?m)^\s*require\b.*$`).Find(data); m != nil {
		t.Fatalf("go.mod gained a dependency (%q); the module is stdlib-only by design — vendor the idea, not the package", m)
	}
	if _, err := os.Stat(filepath.Join(root, "go.sum")); err == nil {
		t.Fatal("go.sum exists; the module must not resolve external modules")
	}
}

// LoadAll loads every package under the module root (the `./...`
// pattern): any directory holding at least one non-test Go file, skipping
// hidden directories, testdata, and vendor.
func (l *Loader) LoadAll() ([]*Package, error) {
	return l.LoadTree(l.root)
}
