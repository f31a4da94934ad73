package lint

import (
	"go/types"
	"strings"
)

// Unused keeps dead code from accumulating: every function or method
// declared under an internal/ directory must be reachable in the call
// graph from a root. Test files are not loaded, so a function that only
// tests call is a finding too; it belongs in its package's _test.go.
//
// The roots are fixed here, not configured:
//   - every main and init, and every package's implicit init (its
//     package-level var initializers, where registries and pools name
//     their functions);
//   - every exported function or method declared in the module's root
//     package (the one import path without a slash), its public API.
//     Methods of a type the root package only aliases are not roots;
//   - every method of an interface declared outside the module, on a
//     type that implements that interface in full (fmt.Stringer's
//     String, error's Error, rand.Source64's Int63, http.Handler's
//     ServeHTTP, ...), since the standard library calls those. A lone
//     Len does not make a type a sort.Interface.
//
// A declared test oracle that other packages' tests need carries
// `//lint:ignore unused <reason>` on the last line of its doc comment.
type Unused struct{}

func (Unused) Name() string { return "unused" }

func (Unused) Doc() string {
	return "every function under internal/ is reachable from a main, an init, a package var, a root-package export or a stdlib interface method"
}

func (Unused) Check(pkg *Package) []Finding { return nil }

func (Unused) CheckProgram(prog *Program) []Finding {
	external := externalMethods(prog.Pkgs)
	var roots []*Node
	for _, n := range prog.Graph.Nodes {
		if isUnusedRoot(n, external) {
			roots = append(roots, n)
		}
	}
	reach := prog.Graph.Reach(roots)
	var out []Finding
	for _, n := range prog.Graph.Nodes {
		if n.Fn == nil || reach.Has(n) || !underInternal(n.Pkg.Path) {
			continue
		}
		out = append(out, Finding{Pos: prog.Position(n), Rule: "unused",
			Msg: n.String() + " is reached from no root; delete it, or move it into a _test.go file if only its package's tests use it"})
	}
	return out
}

// isUnusedRoot reports whether the node is one of the rule's roots.
func isUnusedRoot(n *Node, external map[string][]*types.Interface) bool {
	if n.Lit != nil {
		return false
	}
	if n.Fn == nil {
		return true // a package's implicit init
	}
	sig := n.Fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		switch n.Fn.Name() {
		case "init":
			return true
		case "main":
			return n.Pkg.Types.Name() == "main"
		}
	} else {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		for _, iface := range external[n.Fn.Name()] {
			if types.Implements(types.NewPointer(recv), iface) {
				return true
			}
		}
	}
	return n.Fn.Exported() && !strings.Contains(n.Pkg.Path, "/")
}

// externalMethods indexes, by method name, every interface declared
// outside the module: the universe's error and every interface type in a
// package the analyzed packages import, directly or not.
func externalMethods(pkgs []*Package) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(tp *types.Package, module string)
	visit = func(tp *types.Package, module string) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		if modulePath(tp.Path()) != module {
			scope := tp.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
					addIface(tn.Type())
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp, module)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types, modulePath(pkg.Path))
	}
	return out
}

// modulePath is the first element of an import path: the module for
// energyprop/internal/meter, the package itself for fmt.
func modulePath(path string) string {
	before, _, _ := strings.Cut(path, "/")
	return before
}

// underInternal reports whether the import path has an internal element.
func underInternal(path string) bool {
	return strings.Contains("/"+path+"/", "/internal/")
}
