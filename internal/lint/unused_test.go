package lint

import (
	"fmt"
	"slices"
	"testing"
)

func TestUnusedFlagsDeadCode(t *testing.T) {
	// Test files are never loaded, so a function only a _test.go calls
	// has no caller at all; a helper called only from dead code is dead
	// too.
	src := `package fixture

func init() { live() }

func live() {}

// OnlyTests is what a _test.go file would call.
func OnlyTests() int { return 1 }

func dead() { helper() }

func helper() {}
`
	checkFixture(t, []Rule{Unused{}}, "energyprop/internal/fixture", src, []want{
		{line: 8, rule: "unused", substr: "fixture.OnlyTests is reached from no root"},
		{line: 10, rule: "unused", substr: "fixture.dead"},
		{line: 12, rule: "unused", substr: "fixture.helper"},
	})
}

func TestUnusedRootsMainAndInit(t *testing.T) {
	src := `package main

func main() { fromMain() }

func init() { fromInit() }

func fromMain() {}

func fromInit() {}
`
	checkFixture(t, []Rule{Unused{}}, "energyprop/internal/tool", src, nil)
}

func TestUnusedRootsPackageVars(t *testing.T) {
	// A registry map and a pool's New name their functions only in
	// package-level var initializers: the package's implicit init.
	src := `package fixture

import "sync"

var registry = map[string]func() int{
	"named":   fromMap,
	"literal": func() int { return fromLiteral() },
}

var pool = sync.Pool{New: func() any { return fromPool() }}

func fromMap() int { return 1 }

func fromLiteral() int { return 2 }

func fromPool() any { return nil }
`
	checkFixture(t, []Rule{Unused{}}, "energyprop/internal/fixture", src, nil)
}

func TestUnusedFollowsValuesInterfacesAndGenerics(t *testing.T) {
	// A handler passed as a method value, a module-interface method
	// reached by CHA, an instantiated generic function, and a method of
	// an instantiated generic type all have callers.
	src := `package fixture

import "net/http"

type server struct{ mux *http.ServeMux }

func (s *server) handle(w http.ResponseWriter, r *http.Request) {}

type shape interface{ area() float64 }

type square struct{ side float64 }

func (q square) area() float64 { return q.side * q.side }

func sum[T int | float64](xs []T) T {
	var s T
	for _, x := range xs {
		s += x
	}
	return s
}

type box[T any] struct{ v T }

func (b box[T]) get() T { return b.v }

func init() {
	s := &server{mux: http.NewServeMux()}
	s.mux.HandleFunc("/x", s.handle)
	var sh shape = square{side: 2}
	_ = sh.area() + sum([]float64{1, 2})
	_ = box[int]{v: 1}.get()
}
`
	checkFixture(t, []Rule{Unused{}}, "energyprop/internal/fixture", src, nil)
}

func TestUnusedRootsStdlibInterfaceMethods(t *testing.T) {
	// Nothing in the module calls these; fmt and math/rand do. A method
	// that only shares a name with an interface method is not a root.
	src := `package fixture

import (
	"math/rand"
	"sort"
	"strconv"
)

type level int

func (l level) String() string { return strconv.Itoa(int(l)) }

type source struct{ s uint64 }

func (r *source) Int63() int64 { return int64(r.Uint64() >> 1) }

func (r *source) Uint64() uint64 {
	r.s++
	return r.s
}

func (r *source) Seed(seed int64) { r.s = uint64(seed) }

// Len alone does not implement sort.Interface.
func (r *source) Len() int { return 0 }

func init() {
	_ = rand.New(&source{})
	_ = []any{level(1)}
	sort.Ints(nil)
}
`
	checkFixture(t, []Rule{Unused{}}, "energyprop/internal/fixture", src, []want{
		{line: 25, rule: "unused", substr: "fixture.(*source).Len"},
	})
}

func TestUnusedRootsRootPackageExports(t *testing.T) {
	// The root package's exported functions are public API; a method of
	// a type it merely aliases is not.
	impl := `package impl

type Device struct{}

func New() *Device { return &Device{} }

func Helper() int { return 1 }

func (d *Device) Unused() int { return 2 }
`
	facade := `package energyprop

import "energyprop/internal/impl"

type Device = impl.Device

func NewDevice() *Device { return impl.New() }

func Public() int { return impl.Helper() + private() }

func private() int { return 0 }
`
	checkUnusedModule(t, []fixtureFile{
		{"energyprop/internal/impl", "impl.go", impl},
		{"energyprop", "facade.go", facade},
	}, "impl.go:9")
}

// fixtureFile is one single-file package of a multi-package fixture.
type fixtureFile struct{ path, name, src string }

// checkUnusedModule type-checks the files in order, each as a package a
// later file may import, runs the unused rule over them all, and asserts
// the findings sit exactly at wants ("file:line").
func checkUnusedModule(t *testing.T, files []fixtureFile, wants ...string) {
	t.Helper()
	base := fixtureLoader(t)
	l := &Loader{Fset: base.Fset, root: base.root, module: base.module, std: base.std,
		pkgs: map[string]*Package{}, active: map[string]bool{}}
	var pkgs []*Package
	for _, f := range files {
		pkg, err := l.CheckSource(f.path, f.name, f.src)
		if err != nil {
			t.Fatalf("fixture %s does not type-check: %v", f.path, err)
		}
		l.pkgs[f.path] = pkg
		pkgs = append(pkgs, pkg)
	}
	findings, _ := Run(pkgs, []Rule{Unused{}})
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line))
	}
	if !slices.Equal(got, wants) {
		t.Errorf("findings at %v, want %v", got, wants)
		for _, f := range findings {
			t.Log(f)
		}
	}
}
