package lint

import (
	"strings"
	"testing"
)

func TestFindModuleRoot(t *testing.T) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if module != "energyprop" {
		t.Fatalf("module = %q, want energyprop", module)
	}
	if root == "" {
		t.Fatal("empty root")
	}
	// Walking up from a nested directory lands on the same root.
	root2, _, err := FindModuleRoot(root + "/internal/lint")
	if err != nil {
		t.Fatal(err)
	}
	if root2 != root {
		t.Fatalf("nested lookup found %q, want %q", root2, root)
	}
}

func TestLoaderResolvesModuleImports(t *testing.T) {
	l := fixtureLoader(t)
	pkg, err := l.Load(l.dirFor("energyprop/internal/campaign"))
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Path != "energyprop/internal/campaign" {
		t.Fatalf("path = %q", pkg.Path)
	}
	if pkg.Types == nil || pkg.Info == nil {
		t.Fatal("package not type-checked")
	}
	// Display names are root-relative so findings are stable and
	// clickable wherever epvet runs from.
	for _, f := range pkg.Files {
		if !strings.HasPrefix(f.Name, "internal/campaign/") {
			t.Fatalf("file display name %q is not root-relative", f.Name)
		}
		if strings.HasSuffix(f.Name, "_test.go") {
			t.Fatalf("test file %q loaded; rules govern production code only", f.Name)
		}
	}
}

func TestLoaderRejectsBrokenFixtures(t *testing.T) {
	l := fixtureLoader(t)
	if _, err := l.CheckSource("fixture/broken", "fixture.go", "package broken\nfunc f() { undefined() }\n"); err == nil {
		t.Fatal("type-broken fixture loaded without error; rules would run on partial type info")
	}
}

func TestRuleRegistry(t *testing.T) {
	rules := AllRules()
	wantNames := []string{"nodeterm", "seedflow", "floateq", "droppederr", "ctxsweep",
		"purerun", "hotalloc", "lockorder", "unused"}
	if len(rules) != len(wantNames) {
		t.Fatalf("registry has %d rules, want %d", len(rules), len(wantNames))
	}
	for i, r := range rules {
		if r.Name() != wantNames[i] {
			t.Errorf("rule %d = %q, want %q", i, r.Name(), wantNames[i])
		}
		if r.Doc() == "" {
			t.Errorf("rule %q has no doc line", r.Name())
		}
	}
}
