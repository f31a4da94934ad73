package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide call graph the interprocedural rules
// (purerun, hotalloc, lockorder, unused, seedflow v2) reason over. The
// graph is a conservative over-approximation of "may call":
//
//   - direct calls to named functions and methods are static edges;
//   - calls through an interface method are resolved with class-
//     hierarchy analysis (CHA): every named type in the analyzed
//     packages whose method set satisfies the interface contributes its
//     implementation as a target (this is how a call to device.Device's
//     Run fans out to every backend adapter);
//   - function literals are nodes of their own, with a "may call" edge
//     from the function that creates them (a created closure is assumed
//     runnable);
//   - function values flowing through variables, parameters, and struct
//     fields are tracked flow-insensitively: an indirect call through
//     such a binding targets every function value ever stored in it
//     anywhere in the module (so parallelRange(threads, n, fn) reaches
//     the closures its callers pass as fn);
//   - a package's package-level var initializers are one node of their
//     own, the package's implicit init (display name "pkg.init"), so a
//     function named in a registry map or a sync.Pool's New has a caller.
//
// Only code in the analyzed packages is walked; calls into the standard
// library are leaves. The graph, like the rules, is built
// deterministically: nodes in file order, CHA targets sorted by type
// name, so findings are byte-stable across runs.

// Node is one function body in the call graph: a named function or
// method (Fn != nil), a function literal (Lit != nil), or a package's
// implicit init (both nil; Body holds its var declarations).
type Node struct {
	Fn   *types.Func
	Lit  *ast.FuncLit
	Pkg  *Package
	Body *ast.BlockStmt
	name string
}

// String returns the node's display name, e.g. "device.(*GPU).Run",
// "fft.FFT2D", or "fft.FFT2D$2" for the second literal inside FFT2D.
func (n *Node) String() string { return n.name }

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	switch {
	case n.Lit != nil:
		return n.Lit.Pos()
	case n.Fn != nil:
		return n.Fn.Pos()
	}
	return n.Body.Pos()
}

// Graph is the module-wide call graph over a set of packages.
type Graph struct {
	Nodes []*Node // in deterministic (package, file, position) order

	byFn  map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node
	out   map[*Node][]*Node

	// CallTargets maps every call expression seen in an analyzed body
	// to its resolved in-module targets (empty for stdlib calls).
	CallTargets map[*ast.CallExpr][]*Node
}

// shortPath abbreviates the module's import paths for display:
// energyprop/internal/device -> device, energyprop/cmd/epvet -> epvet.
func shortPath(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

func nodeDisplayName(pkg *Package, fn *types.Func) string {
	short := shortPath(pkg.Path)
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return fmt.Sprintf("%s.(%s%s).%s", short, ptr, named.Obj().Name(), fn.Name())
		}
	}
	return short + "." + fn.Name()
}

// NodeFor returns the node for a named function, nil when the function
// has no analyzed body (stdlib, or a package outside the program). A
// method of an instantiated generic type maps to its declaration.
func (g *Graph) NodeFor(fn *types.Func) *Node { return g.byFn[fn.Origin()] }

// builder carries the intermediate state of a graph build.
type builder struct {
	g       *Graph
	pkgs    []*Package
	named   []*types.Named // CHA universe, sorted by type string
	edgeSet map[[2]*Node]bool

	// bindings over-approximates the set of function nodes each
	// object (variable, parameter, struct field) may hold.
	bindings map[types.Object][]*Node
	bindSet  map[types.Object]map[*Node]bool
	// flows are deferred object-to-object copies (dst may hold whatever
	// src holds), resolved by fixpoint after the walk.
	flows [][2]types.Object
	// indirect calls through an object binding, resolved last.
	indirect []indirectCall

	litCount map[*Node]int
}

type indirectCall struct {
	from *Node
	call *ast.CallExpr
	obj  types.Object
}

// BuildGraph constructs the call graph over the given packages.
func BuildGraph(pkgs []*Package) *Graph {
	b := &builder{
		g: &Graph{
			byFn:        map[*types.Func]*Node{},
			byLit:       map[*ast.FuncLit]*Node{},
			out:         map[*Node][]*Node{},
			CallTargets: map[*ast.CallExpr][]*Node{},
		},
		pkgs:     pkgs,
		edgeSet:  map[[2]*Node]bool{},
		bindings: map[types.Object][]*Node{},
		bindSet:  map[types.Object]map[*Node]bool{},
		litCount: map[*Node]int{},
	}
	b.collectNamedTypes()
	// Pass 1: one node per declared function body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Fn: fn, Pkg: pkg, Body: fd.Body, name: nodeDisplayName(pkg, fn)}
				b.g.Nodes = append(b.g.Nodes, n)
				b.g.byFn[fn] = n
			}
		}
		if n := varInitNode(pkg); n != nil {
			b.g.Nodes = append(b.g.Nodes, n)
		}
	}
	// Pass 2: walk bodies, collecting direct edges, literal nodes,
	// function-value bindings, and unresolved indirect calls.
	for _, n := range append([]*Node(nil), b.g.Nodes...) {
		if n.Lit == nil { // literal nodes are created during the walk
			b.walk(n, n.Body)
		}
	}
	// Pass 3: propagate bindings through object-to-object flows.
	for changed := true; changed; {
		changed = false
		for _, fl := range b.flows {
			for _, t := range b.bindings[fl[1]] {
				if b.bind(fl[0], t) {
					changed = true
				}
			}
		}
	}
	// Pass 4: resolve indirect calls against the final bindings.
	for _, ic := range b.indirect {
		for _, t := range b.bindings[ic.obj] {
			b.edge(ic.from, t)
			b.g.CallTargets[ic.call] = append(b.g.CallTargets[ic.call], t)
		}
	}
	return b.g
}

// varInitNode returns the package's implicit init: one node whose body
// is every package-level var declaration with an initializer, in file
// order. It returns nil when the package has none.
func varInitNode(pkg *Package) *Node {
	body := &ast.BlockStmt{}
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				if len(spec.(*ast.ValueSpec).Values) > 0 {
					body.List = append(body.List, &ast.DeclStmt{Decl: gd})
					break
				}
			}
		}
	}
	if len(body.List) == 0 {
		return nil
	}
	body.Lbrace = body.List[0].Pos()
	return &Node{Pkg: pkg, Body: body, name: shortPath(pkg.Path) + ".init"}
}

// collectNamedTypes gathers the CHA universe: every non-interface named
// type declared in the analyzed packages, sorted for determinism.
func (b *builder) collectNamedTypes() {
	for _, pkg := range b.pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			b.named = append(b.named, named)
		}
	}
	sort.Slice(b.named, func(i, j int) bool {
		return types.TypeString(b.named[i], nil) < types.TypeString(b.named[j], nil)
	})
}

func (b *builder) edge(from, to *Node) {
	if from == nil || to == nil {
		return
	}
	key := [2]*Node{from, to}
	if b.edgeSet[key] {
		return
	}
	b.edgeSet[key] = true
	b.g.out[from] = append(b.g.out[from], to)
}

func (b *builder) bind(obj types.Object, t *Node) bool {
	if obj == nil || t == nil {
		return false
	}
	set := b.bindSet[obj]
	if set == nil {
		set = map[*Node]bool{}
		b.bindSet[obj] = set
	}
	if set[t] {
		return false
	}
	set[t] = true
	b.bindings[obj] = append(b.bindings[obj], t)
	return true
}

// ensureLit returns (creating on first sight) the node for a literal
// encountered inside parent, wiring the creation edge.
func (b *builder) ensureLit(parent *Node, lit *ast.FuncLit) *Node {
	if n := b.g.byLit[lit]; n != nil {
		return n
	}
	b.litCount[parent]++
	n := &Node{
		Lit:  lit,
		Pkg:  parent.Pkg,
		Body: lit.Body,
		name: fmt.Sprintf("%s$%d", parent.name, b.litCount[parent]),
	}
	b.g.Nodes = append(b.g.Nodes, n)
	b.g.byLit[lit] = n
	b.edge(parent, n)
	return n
}

// walk scans one function body, descending into literals as their own
// nodes.
func (b *builder) walk(cur *Node, body ast.Node) {
	pkg := cur.Pkg
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			ln := b.ensureLit(cur, x)
			b.walk(ln, x.Body)
			return false // the literal's body belongs to its own node
		case *ast.CallExpr:
			b.recordCall(cur, pkg, x)
		case *ast.Ident:
			// A bare mention of a named function (function value,
			// argument, assignment) is a "may call" edge.
			if fn, ok := pkg.Info.Uses[x].(*types.Func); ok {
				b.edge(cur, b.g.NodeFor(fn))
			}
		case *ast.AssignStmt:
			b.recordAssignFlows(pkg, cur, x)
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) {
					b.recordValueFlow(pkg, cur, pkg.Info.Defs[name], x.Values[i])
				}
			}
		case *ast.CompositeLit:
			b.recordCompositeFlows(pkg, cur, x)
		}
		return true
	})
}

// recordCall resolves one call expression's targets (static, CHA, or
// deferred-indirect) and records argument-to-parameter function flows.
func (b *builder) recordCall(cur *Node, pkg *Package, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Conversions are not calls.
	if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
		return
	}
	switch f := fun.(type) {
	case *ast.FuncLit:
		ln := b.ensureLit(cur, f)
		b.g.CallTargets[call] = append(b.g.CallTargets[call], ln)
	case *ast.Ident:
		switch obj := pkg.Info.Uses[f].(type) {
		case *types.Func:
			b.addStaticTarget(cur, call, obj)
		case *types.Var:
			b.indirect = append(b.indirect, indirectCall{cur, call, obj})
		}
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[f]; ok {
			switch s.Kind() {
			case types.MethodVal, types.MethodExpr:
				if iface := interfaceOf(s.Recv()); iface != nil {
					b.addCHATargets(cur, call, iface, f.Sel.Name)
				} else if m, ok := s.Obj().(*types.Func); ok {
					b.addStaticTarget(cur, call, m)
				}
			case types.FieldVal:
				b.indirect = append(b.indirect, indirectCall{cur, call, s.Obj()})
			}
			break
		}
		// Package-qualified reference: pkg.Func or pkg.FuncVar.
		switch obj := pkg.Info.Uses[f.Sel].(type) {
		case *types.Func:
			b.addStaticTarget(cur, call, obj)
		case *types.Var:
			b.indirect = append(b.indirect, indirectCall{cur, call, obj})
		}
	}
	// Function-valued arguments flow into the callee's parameters.
	if callee := staticCallee(pkg, call); callee != nil {
		sig, ok := callee.Type().(*types.Signature)
		if ok {
			for i, arg := range call.Args {
				if i >= sig.Params().Len() {
					break // variadic tail: skip, conservative enough
				}
				b.recordValueFlow(pkg, cur, sig.Params().At(i), arg)
			}
		}
	}
}

func (b *builder) addStaticTarget(cur *Node, call *ast.CallExpr, fn *types.Func) {
	if t := b.g.NodeFor(fn); t != nil {
		b.edge(cur, t)
		b.g.CallTargets[call] = append(b.g.CallTargets[call], t)
	}
}

// addCHATargets adds every analyzed implementation of the interface
// method as a call target.
func (b *builder) addCHATargets(cur *Node, call *ast.CallExpr, iface *types.Interface, method string) {
	for _, named := range b.named {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		sel := types.NewMethodSet(types.NewPointer(named)).Lookup(named.Obj().Pkg(), method)
		if sel == nil {
			continue
		}
		m, ok := sel.Obj().(*types.Func)
		if !ok {
			continue
		}
		if t := b.g.NodeFor(m); t != nil {
			b.edge(cur, t)
			b.g.CallTargets[call] = append(b.g.CallTargets[call], t)
		}
	}
}

// recordAssignFlows tracks function values stored into variables and
// fields by an assignment.
func (b *builder) recordAssignFlows(pkg *Package, cur *Node, s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		b.recordValueFlow(pkg, cur, lhsObject(pkg, lhs), s.Rhs[i])
	}
}

// recordCompositeFlows tracks function values stored into struct fields
// by a keyed composite literal.
func (b *builder) recordCompositeFlows(pkg *Package, cur *Node, cl *ast.CompositeLit) {
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		b.recordValueFlow(pkg, cur, pkg.Info.Uses[key], kv.Value)
	}
}

// recordValueFlow notes that dst may hold the function value denoted by
// expr: a literal or named function binds directly, another object
// defers to the flow fixpoint.
func (b *builder) recordValueFlow(pkg *Package, cur *Node, dst types.Object, expr ast.Expr) {
	if dst == nil {
		return
	}
	if t := dst.Type(); t == nil || !isFuncType(t) {
		return
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.FuncLit:
		b.bind(dst, b.ensureLit(cur, e))
	case *ast.Ident:
		switch obj := pkg.Info.Uses[e].(type) {
		case *types.Func:
			b.bind(dst, b.g.NodeFor(obj))
		case *types.Var:
			b.flows = append(b.flows, [2]types.Object{dst, obj})
		}
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[e]; ok {
			switch s.Kind() {
			case types.MethodVal: // bound method value
				if m, ok := s.Obj().(*types.Func); ok {
					b.bind(dst, b.g.NodeFor(m))
				}
			case types.FieldVal:
				b.flows = append(b.flows, [2]types.Object{dst, s.Obj()})
			}
			return
		}
		switch obj := pkg.Info.Uses[e.Sel].(type) {
		case *types.Func:
			b.bind(dst, b.g.NodeFor(obj))
		case *types.Var:
			b.flows = append(b.flows, [2]types.Object{dst, obj})
		}
	}
}

// lhsObject resolves an assignment target to the object it stores into:
// a plain identifier's variable or a selector's field/variable.
func lhsObject(pkg *Package, lhs ast.Expr) types.Object {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := pkg.Info.Defs[e]; obj != nil {
			return obj
		}
		return pkg.Info.Uses[e]
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[e]; ok && s.Kind() == types.FieldVal {
			return s.Obj()
		}
		return pkg.Info.Uses[e.Sel]
	}
	return nil
}

// staticCallee returns the called *types.Func when the call's function
// expression names one statically (direct or method call), else nil.
func staticCallee(pkg *Package, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// interfaceOf returns the interface underlying t (following pointers),
// or nil when t is concrete.
func interfaceOf(t types.Type) *types.Interface {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

func isFuncType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// Reach is the result of a forward reachability query: every node
// reachable from the roots, with one shortest call path recorded for
// diagnostics.
type Reach struct {
	pred  map[*Node]*Node // BFS tree; roots map to nil
	roots map[*Node]bool
}

// Reach runs BFS from the roots over the call edges.
func (g *Graph) Reach(roots []*Node) *Reach {
	r := &Reach{pred: map[*Node]*Node{}, roots: map[*Node]bool{}}
	queue := make([]*Node, 0, len(roots))
	for _, n := range roots {
		if n == nil || r.roots[n] {
			continue
		}
		r.roots[n] = true
		r.pred[n] = nil
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range g.out[n] {
			if _, seen := r.pred[m]; seen {
				continue
			}
			r.pred[m] = n
			queue = append(queue, m)
		}
	}
	return r
}

// Has reports whether n is reachable from the roots.
func (r *Reach) Has(n *Node) bool {
	_, ok := r.pred[n]
	return ok
}

// Path renders the call chain from a root to n, e.g.
// "device.(*GPU).Run → gpusim.(*Device).RunMatMul". Long chains keep
// the root and the last few hops.
func (r *Reach) Path(n *Node) string {
	var chain []string
	for cur := n; cur != nil; {
		chain = append(chain, cur.String())
		if r.roots[cur] {
			break
		}
		cur = r.pred[cur]
	}
	// chain is leaf..root; reverse it.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	const maxHops = 5
	if len(chain) > maxHops {
		head := chain[:2]
		tail := chain[len(chain)-(maxHops-2):]
		chain = append(append(append([]string{}, head...), "…"), tail...)
	}
	return strings.Join(chain, " → ")
}

// CanReach computes the inverse query: the set of nodes from which at
// least one target is reachable (targets included).
func (g *Graph) CanReach(targets []*Node) map[*Node]bool {
	rev := map[*Node][]*Node{}
	for from, outs := range g.out {
		for _, to := range outs {
			rev[to] = append(rev[to], from)
		}
	}
	seen := map[*Node]bool{}
	var queue []*Node
	for _, t := range targets {
		if t != nil && !seen[t] {
			seen[t] = true
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range rev[n] {
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	return seen
}
