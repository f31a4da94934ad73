package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"strings"
	"sync"
	"testing"
)

// sharedLoader is one loader for all fixture tests: the source importer
// caches type-checked stdlib packages, so reusing it keeps the suite
// fast. Fixture packages themselves are never cached by CheckSource.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, module, err := FindModuleRoot(".")
		if err != nil {
			loaderErr = err
			return
		}
		loaderVal = NewLoader(root, module)
	})
	if loaderErr != nil {
		t.Fatalf("building fixture loader: %v", loaderErr)
	}
	return loaderVal
}

// want is one expected finding: the fixture line it must appear on, the
// rule that must report it, and a substring of its message.
type want struct {
	line   int
	rule   string
	substr string
}

// checkFixture type-checks src as a single-file package under importPath,
// runs the given rules through the full engine (so //lint:ignore
// directives participate), and asserts the findings match wants exactly.
func checkFixture(t *testing.T, rules []Rule, importPath, src string, wants []want) Summary {
	t.Helper()
	return checkFixturePkgs(t, rules, importPath, src, nil, wants)
}

// checkFixturePkgs is checkFixture plus real tree packages loaded by
// import path and analyzed alongside the fixture — the shape for
// cross-package dataflow tests (e.g. a campaign fixture whose seed
// conduit is discovered inside the real internal/meter).
func checkFixturePkgs(t *testing.T, rules []Rule, importPath, src string, extra []string, wants []want) Summary {
	t.Helper()
	l := fixtureLoader(t)
	pkg, err := l.CheckSource(importPath, "fixture.go", src)
	if err != nil {
		t.Fatalf("fixture does not type-check: %v\nsource:\n%s", err, numbered(src))
	}
	pkgs := []*Package{pkg}
	for _, path := range extra {
		ep, err := l.LoadPath(path)
		if err != nil {
			t.Fatalf("loading extra package %s: %v", path, err)
		}
		pkgs = append(pkgs, ep)
	}
	findings, sum := Run(pkgs, rules)
	var unmatched []Finding
outer:
	for _, f := range findings {
		for i, w := range wants {
			if w.line == f.Pos.Line && w.rule == f.Rule && strings.Contains(f.Msg, w.substr) {
				wants = append(wants[:i], wants[i+1:]...)
				continue outer
			}
		}
		unmatched = append(unmatched, f)
	}
	for _, f := range unmatched {
		t.Errorf("unexpected finding: %s", f)
	}
	for _, w := range wants {
		t.Errorf("missing finding: line %d rule %s msg ~%q", w.line, w.rule, w.substr)
	}
	if t.Failed() {
		t.Logf("fixture:\n%s", numbered(src))
	}
	return sum
}

// numbered renders src with 1-based line numbers for failure output.
func numbered(src string) string {
	var b strings.Builder
	for i, line := range strings.Split(src, "\n") {
		fmt.Fprintf(&b, "%3d| %s\n", i+1, line)
	}
	return b.String()
}

func TestFindingString(t *testing.T) {
	pkgs := mustFixture(t, "fixture/str", `package str

import "errors"

func f() error { return errors.New("x") }

func g() {
	f()
}
`)
	findings, _ := Run(pkgs, []Rule{DroppedErr{}})
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want 1", len(findings))
	}
	got := findings[0].String()
	wantPrefix := "fixture.go:8: droppederr: "
	if !strings.HasPrefix(got, wantPrefix) {
		t.Fatalf("Finding.String() = %q, want prefix %q", got, wantPrefix)
	}
}

func mustFixture(t *testing.T, importPath, src string) []*Package {
	t.Helper()
	pkg, err := fixtureLoader(t).CheckSource(importPath, "fixture.go", src)
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}
	return []*Package{pkg}
}

// LoadPath loads a module-internal package by import path. Fixture
// tests use it to analyze a real tree package (e.g. internal/meter)
// alongside an in-memory fixture: the loader's cache guarantees both
// see the same *types.Package objects, so cross-package dataflow
// (parameter identity, interface satisfaction) resolves exactly as it
// does in a full tree run.
func (l *Loader) LoadPath(importPath string) (*Package, error) {
	return l.load(importPath)
}

// CheckSource type-checks a single in-memory file as a package with the
// given import path — the entry point for the rule fixture tests. The
// import path matters because several rules scope themselves to specific
// packages. Fixture packages are not cached, so successive fixtures may
// reuse a path.
func (l *Loader) CheckSource(importPath, filename, src string) (*Package, error) {
	af, err := parser.ParseFile(l.Fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path:  importPath,
		Fset:  l.Fset,
		Files: []*File{{Name: filename, Src: []byte(src), AST: af}},
	}
	if err := l.check(pkg, []*ast.File{af}); err != nil {
		return nil, err
	}
	return pkg, nil
}
