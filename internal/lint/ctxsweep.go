package lint

import (
	"go/ast"
	"go/types"
)

const parallelPath = "energyprop/internal/parallel"

// CtxSweep checks the cancellation contract on fan-out entry points:
// any exported function or method that hands work to internal/parallel
// (a call whose first parameter is a context.Context, e.g. parallel.For)
// must itself accept a context.Context and forward it — not mint a fresh
// context.Background()/TODO() that severs the caller's cancellation.
// Exhaustive sweeps are exactly the "expensive and may not be feasible"
// operations the paper warns about, so every public path into one must
// be abortable.
type CtxSweep struct{}

func (CtxSweep) Name() string { return "ctxsweep" }

func (CtxSweep) Doc() string {
	return "exported functions fanning out via internal/parallel must accept and forward a context.Context"
}

func (CtxSweep) Check(pkg *Package) []Finding {
	if pkg.Path == parallelPath {
		return nil // the pool itself is the contract, not a client
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			fanouts := parallelFanoutCalls(pkg, fd.Body)
			if len(fanouts) == 0 {
				continue
			}
			if !hasContextParam(pkg.Info, fd) {
				out = append(out, pkg.findingf(fd.Name, "ctxsweep",
					"exported %s fans work out via internal/parallel but has no context.Context parameter, so callers cannot cancel the sweep",
					fd.Name.Name))
				continue
			}
			for _, call := range fanouts {
				if arg := freshContextArg(pkg, call); arg != nil {
					out = append(out, pkg.findingf(arg, "ctxsweep",
						"%s forwards %s instead of its own ctx, severing the caller's cancellation",
						fd.Name.Name, exprString(pkg.Fset, arg)))
				}
			}
		}
	}
	return out
}

// parallelFanoutCalls collects calls in body to internal/parallel
// functions whose first parameter is a context.Context.
func parallelFanoutCalls(pkg *Package, body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := pkgCall(pkg.Info, call, parallelPath); !ok {
			return true
		}
		sig, ok := pkg.Info.TypeOf(call.Fun).(*types.Signature)
		if !ok || sig.Params().Len() == 0 || !isContextType(sig.Params().At(0).Type()) {
			return true
		}
		out = append(out, call)
		return true
	})
	return out
}

// hasContextParam reports whether the function declares a parameter of
// type context.Context.
func hasContextParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// freshContextArg returns the fan-out call's first argument when it
// contains a context.Background() or context.TODO() call, nil otherwise.
func freshContextArg(pkg *Package, call *ast.CallExpr) ast.Expr {
	if len(call.Args) == 0 {
		return nil
	}
	arg := call.Args[0]
	fresh := false
	ast.Inspect(arg, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if name, ok := pkgCall(pkg.Info, c, "context"); ok &&
				(name == "Background" || name == "TODO") {
				fresh = true
				return false
			}
		}
		return !fresh
	})
	if fresh {
		return arg
	}
	return nil
}
