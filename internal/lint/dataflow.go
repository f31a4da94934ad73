package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is seedflow v2's dataflow engine: a module-wide taint
// analysis with device.ConfigSeed (and its key form, device.KeySeed,
// which ConfigSeed wraps) as the single source of blessed seed material. Two fixpoints run over the analyzed packages:
//
//   - forward blessing: the result of device.ConfigSeed is blessed, and
//     blessing propagates through assignments, declarations, composite
//     literal fields, arithmetic, function returns (a helper returning a
//     blessed value becomes a blessed helper), and call arguments (a
//     parameter fed a blessed value at some call site is treated as
//     blessed — optimistic, but a raw-seeded call site is still caught
//     at that site);
//   - backward sink flow: starting from the arguments of
//     rand.NewSource / rand.NewPCG and of the math/rand and randsrc
//     Seed methods, sink flow propagates backward
//     through assignments and call boundaries, stopping at blessing
//     boundaries (device.ConfigSeed and blessed helpers). A seed-named
//     parameter with sink flow is a "seed conduit": its call sites are
//     held to the same rules as a direct rand constructor, which is how
//     meter.NewMeter(power, seed) calls in campaign code get checked
//     even though the rand constructor lives two packages away.
//
// The v1 syntactic rule blessed anything routed through a seed-named
// helper, so a strict-package helper like seedFor(i int) int64 { return
// base + int64(i) } laundered a loop index into a generator. Under
// taint, blessing comes only from device.ConfigSeed's value actually
// flowing, whatever the names involved.
type seedTaint struct {
	blessedObjs map[types.Object]bool
	blessedFns  map[*types.Func]bool
	sinkFlow    map[types.Object]bool
	conduits    map[*types.Func][]int // seed-conduit parameter indices
}

// isConfigSeedFn reports whether fn is the seed helper: ConfigSeed or
// KeySeed in the device package.
func isConfigSeedFn(fn *types.Func) bool {
	return fn != nil && (fn.Name() == "ConfigSeed" || fn.Name() == "KeySeed") &&
		fn.Pkg() != nil && fn.Pkg().Path() == devicePkgPath
}

func computeSeedTaint(prog *Program) *seedTaint {
	st := &seedTaint{
		blessedObjs: map[types.Object]bool{},
		blessedFns:  map[*types.Func]bool{},
		sinkFlow:    map[types.Object]bool{},
		conduits:    map[*types.Func][]int{},
	}
	for changed := true; changed; {
		changed = false
		for _, pkg := range prog.Pkgs {
			for _, f := range pkg.Files {
				st.blessPass(pkg, f, &changed)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, pkg := range prog.Pkgs {
			for _, f := range pkg.Files {
				st.sinkPass(pkg, f, &changed)
			}
		}
	}
	for _, n := range prog.Graph.Nodes {
		if n.Fn == nil || isConfigSeedFn(n.Fn) || st.blessedFns[n.Fn] {
			continue
		}
		sig, ok := n.Fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if st.sinkFlow[p] && strings.Contains(strings.ToLower(p.Name()), "seed") {
				st.conduits[n.Fn] = append(st.conduits[n.Fn], i)
			}
		}
	}
	return st
}

// blessObj marks obj blessed, reporting whether that is new.
func (st *seedTaint) blessObj(obj types.Object, changed *bool) {
	if obj == nil || st.blessedObjs[obj] {
		return
	}
	st.blessedObjs[obj] = true
	*changed = true
}

// blessPass runs one forward-propagation sweep over a file.
func (st *seedTaint) blessPass(pkg *Package, f *File, changed *bool) {
	walkStack(f.AST, func(n ast.Node, stack []ast.Node) {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					if st.exprBlessed(pkg, x.Rhs[i]) {
						st.blessObj(lhsObject(pkg, lhs), changed)
					} else if x.Tok != token.ASSIGN && x.Tok != token.DEFINE {
						// s += seed keeps s tainted if either side is.
						if st.exprBlessed(pkg, lhs) {
							st.blessObj(lhsObject(pkg, lhs), changed)
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) && st.exprBlessed(pkg, x.Values[i]) {
					st.blessObj(pkg.Info.Defs[name], changed)
				}
			}
		case *ast.CompositeLit:
			st.blessComposite(pkg, x, changed)
		case *ast.ReturnStmt:
			if len(x.Results) == 1 && st.exprBlessed(pkg, x.Results[0]) {
				if fn := enclosingNamedFunc(pkg, stack); fn != nil && !st.blessedFns[fn] {
					st.blessedFns[fn] = true
					*changed = true
				}
			}
		case *ast.CallExpr:
			callee := staticCallee(pkg, x)
			if callee == nil {
				return
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok {
				return
			}
			for i, arg := range x.Args {
				if i >= sig.Params().Len() {
					break
				}
				if st.exprBlessed(pkg, arg) {
					st.blessObj(sig.Params().At(i), changed)
				}
			}
		}
	})
}

// blessComposite propagates blessing into struct-literal fields, both
// keyed and positional.
func (st *seedTaint) blessComposite(pkg *Package, cl *ast.CompositeLit, changed *bool) {
	tv, ok := pkg.Info.Types[cl]
	if !ok {
		return
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	strct, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range cl.Elts {
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			if key, isIdent := kv.Key.(*ast.Ident); isIdent && st.exprBlessed(pkg, kv.Value) {
				st.blessObj(pkg.Info.Uses[key], changed)
			}
			continue
		}
		if i < strct.NumFields() && st.exprBlessed(pkg, elt) {
			st.blessObj(strct.Field(i), changed)
		}
	}
}

// exprBlessed reports whether the expression carries blessed seed
// material: a device.ConfigSeed call, a blessed helper's result, a
// blessed variable/parameter/field, or arithmetic over any of those.
func (st *seedTaint) exprBlessed(pkg *Package, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if tv, ok := pkg.Info.Types[ast.Unparen(x.Fun)]; ok && tv.IsType() {
			return len(x.Args) == 1 && st.exprBlessed(pkg, x.Args[0])
		}
		callee := staticCallee(pkg, x)
		return isConfigSeedFn(callee) || st.blessedFns[callee]
	case *ast.Ident:
		if obj := pkg.Info.Uses[x]; obj != nil {
			return st.blessedObjs[obj]
		}
		return st.blessedObjs[pkg.Info.Defs[x]]
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			return st.blessedObjs[s.Obj()]
		}
		return st.blessedObjs[pkg.Info.Uses[x.Sel]]
	case *ast.BinaryExpr:
		return st.exprBlessed(pkg, x.X) || st.exprBlessed(pkg, x.Y)
	case *ast.UnaryExpr:
		return st.exprBlessed(pkg, x.X)
	case *ast.IndexExpr:
		return st.exprBlessed(pkg, x.X)
	}
	return false
}

// enclosingNamedFunc returns the *types.Func of the innermost enclosing
// function declaration (nil inside a function literal: literals have no
// callable identity for blessing).
func enclosingNamedFunc(pkg *Package, stack []ast.Node) *types.Func {
	for i := len(stack) - 1; i >= 0; i-- {
		switch d := stack[i].(type) {
		case *ast.FuncLit:
			return nil
		case *ast.FuncDecl:
			fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
			return fn
		}
	}
	return nil
}

// markSinkIdents adds every variable mentioned in expr to the sink-flow
// set, stopping at blessing boundaries: material inside a
// device.ConfigSeed call (or a blessed helper) is identity input to the
// hash, not raw seed material.
func (st *seedTaint) markSinkIdents(pkg *Package, expr ast.Expr, changed *bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			callee := staticCallee(pkg, c)
			if isConfigSeedFn(callee) || st.blessedFns[callee] {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, isVar := pkg.Info.Uses[id].(*types.Var); isVar && !st.sinkFlow[v] {
				st.sinkFlow[v] = true
				*changed = true
			}
		}
		return true
	})
}

// randsrcPkgPath is the in-repo generator package: its Source runs
// math/rand's algorithm, so its Seed fixes a sequence just as
// (*rand.Rand).Seed does.
const randsrcPkgPath = "energyprop/internal/randsrc"

// randSeedSink returns the sink's display name when the call fixes a
// generator's sequence: rand.NewSource or rand.NewPCG (either math/rand
// generation), a math/rand Seed call ("rand.Seed": reseeding a generator
// in place, e.g. (*rand.Rand).Seed on a pooled meter, fixes its sequence
// exactly as constructing it does), or the Seed method of randsrc's
// Source ("randsrc.Seed"), which does the same without going through a
// rand.Rand.
func randSeedSink(pkg *Package, call *ast.CallExpr) (string, bool) {
	for _, path := range []string{"math/rand", "math/rand/v2"} {
		if name, ok := pkgCall(pkg.Info, call, path); ok && seedSources[name] {
			return "rand." + name, true
		}
	}
	fn := staticCallee(pkg, call)
	if fn == nil || fn.Name() != "Seed" || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "math/rand":
		return "rand.Seed", true
	case randsrcPkgPath:
		return "randsrc.Seed", true
	}
	return "", false
}

// sinkPass runs one backward sink-flow sweep over a file.
func (st *seedTaint) sinkPass(pkg *Package, f *File, changed *bool) {
	ast.Inspect(f.AST, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if _, ok := randSeedSink(pkg, x); ok {
				for _, arg := range x.Args {
					st.markSinkIdents(pkg, arg, changed)
				}
				return true
			}
			callee := staticCallee(pkg, x)
			if callee == nil {
				return true
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok {
				return true
			}
			for i, arg := range x.Args {
				if i >= sig.Params().Len() {
					break
				}
				if st.sinkFlow[sig.Params().At(i)] {
					st.markSinkIdents(pkg, arg, changed)
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, lhs := range x.Lhs {
					if obj := lhsObject(pkg, lhs); obj != nil && st.sinkFlow[obj] {
						st.markSinkIdents(pkg, x.Rhs[i], changed)
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if i < len(x.Values) && st.sinkFlow[pkg.Info.Defs[name]] {
					st.markSinkIdents(pkg, x.Values[i], changed)
				}
			}
		}
		return true
	})
}
