package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PureRun is the measurement-purity rule the ROADMAP's observability
// plane is gated on: nothing transitively reachable from a device.Run
// implementation or from the meter's sampling entry points may perturb
// or observe the world outside the measurement — no writes to
// package-level state (a future metrics counter is exactly such a
// write), no logging or printing, no channel operations, and no
// wall-clock access. A measured record must be a pure function of
// (seed, config); any of these effects makes it a function of
// scheduling too.
//
// Roots are discovered three ways:
//   - every method named Run on a type implementing
//     energyprop/internal/device.Device (so new backends are covered the
//     moment they satisfy the interface);
//   - the meter's sampling entry point, (*meter.Meter).MeasureRun;
//   - functions marked `//lint:root purerun <reason>`.
//
// The one structural allowance is sync.Pool scratch: Get/Put recycle
// value-identical buffers, so pool traffic on package-level pools
// cannot leak scheduling into a record. Receiver-field mutation (the
// meter's own scratch slices) is likewise allowed — per-instance state
// is the measurement, not shared state. Cancellation receives from
// ctx.Done() are allowed: cancellability is itself a contract (ctxsweep)
// and an aborted run produces no record at all.
//
// The streaming result pipeline adds a layering clause: no
// campaign.Sink Accept may be reachable from a measurement path. Sinks
// are the campaign engine's output side — driven in configuration order
// after a point commits — and a device that pushed into one from inside
// Run would emit results out of order, once per retry, and concurrently
// from the worker pool, breaking every delivery guarantee downstream
// byte-identity rests on.
type PureRun struct{}

func (PureRun) Name() string { return "purerun" }

func (PureRun) Doc() string {
	return "code reachable from device.Run/meter sampling must not write package-level state, log, use channels, read the clock, or drive a campaign.Sink"
}

func (PureRun) Check(pkg *Package) []Finding { return nil }

// pureRunPoolAllow maps receiver types whose methods may be called on
// package-level variables inside measurement paths, with the audited
// reason.
var pureRunPoolAllow = map[string]string{
	"sync.Pool": "scratch pools recycle value-identical buffers",
}

// pureRunClockCalls are the time package functions that read or depend
// on the wall clock.
var pureRunClockCalls = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

const (
	devicePkgPath   = "energyprop/internal/device"
	campaignPkgPath = "energyprop/internal/campaign"
)

// sinkInterface resolves campaign.Sink from the analyzed packages or
// their imports; nil when the campaign package is nowhere in the
// program (the layering clause is then vacuous).
func sinkInterface(prog *Program) *types.Interface {
	obj := prog.LookupType(campaignPkgPath, "Sink")
	if obj == nil {
		return nil
	}
	return interfaceOf(obj.Type())
}

// deviceRunRoots returns every analyzed method named Run whose receiver
// type (or its pointer) implements device.Device.
func deviceRunRoots(prog *Program) []*Node {
	obj := prog.LookupType(devicePkgPath, "Device")
	if obj == nil {
		return nil
	}
	iface := interfaceOf(obj.Type())
	if iface == nil {
		return nil
	}
	var roots []*Node
	for _, n := range prog.Graph.Nodes {
		if n.Fn == nil || n.Fn.Name() != "Run" {
			continue
		}
		sig, ok := n.Fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		if p, isPtr := recv.(*types.Pointer); isPtr {
			recv = p.Elem()
		}
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			roots = append(roots, n)
		}
	}
	return roots
}

// meterRoots returns the meter's sampling entry point, which sits at the
// head of every measurement alongside the Run implementations.
func meterRoots(prog *Program) []*Node {
	var roots []*Node
	for _, n := range prog.Graph.Nodes {
		if n.Fn != nil && n.Fn.Pkg() != nil &&
			n.Fn.Pkg().Path() == "energyprop/internal/meter" && n.Fn.Name() == "MeasureRun" {
			roots = append(roots, n)
		}
	}
	return roots
}

func (PureRun) CheckProgram(prog *Program) []Finding {
	roots := deviceRunRoots(prog)
	roots = append(roots, meterRoots(prog)...)
	roots = append(roots, prog.RootNodes("purerun")...)
	if len(roots) == 0 {
		return nil
	}
	sink := sinkInterface(prog)
	reach := prog.Graph.Reach(roots)
	var out []Finding
	for _, n := range prog.Graph.Nodes {
		if !reach.Has(n) {
			continue
		}
		out = append(out, checkPureBody(n, reach, sink)...)
	}
	return out
}

// checkPureBody scans one reachable function body for impure effects.
func checkPureBody(n *Node, reach *Reach, sink *types.Interface) []Finding {
	pkg := n.Pkg
	path := reach.Path(n)
	var out []Finding
	report := func(at ast.Node, format string, args ...any) {
		f := pkg.findingf(at, "purerun", format, args...)
		f.Msg += " [measurement path: " + path + "]"
		out = append(out, f)
	}
	walkNodeBody(n.Body, func(nd ast.Node, stack []ast.Node) {
		switch x := nd.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if v := baseMutatedVar(pkg, lhs); v != nil && isPackageLevelVar(v) {
					report(lhs, "write to package-level %s.%s inside a measurement path makes records depend on shared state",
						shortPath(v.Pkg().Path()), v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := baseMutatedVar(pkg, x.X); v != nil && isPackageLevelVar(v) {
				report(x, "write to package-level %s.%s inside a measurement path makes records depend on shared state",
					shortPath(v.Pkg().Path()), v.Name())
			}
		case *ast.SendStmt:
			report(x, "channel send inside a measurement path couples the record to goroutine scheduling")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !isCtxDoneExpr(pkg, x.X) {
				report(x, "channel receive inside a measurement path couples the record to goroutine scheduling")
			}
		case *ast.SelectStmt:
			if !selectOnlyCtxDone(pkg, x) {
				report(x, "select inside a measurement path couples the record to goroutine scheduling")
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(x, "ranging over a channel inside a measurement path couples the record to goroutine scheduling")
				}
			}
		case *ast.CallExpr:
			out = append(out, checkPureCall(pkg, x, path, sink)...)
		}
	})
	return out
}

// checkPureCall flags impure calls: clock reads, logging/printing,
// close(), Sink deliveries, and mutating method calls on package-level
// state.
func checkPureCall(pkg *Package, call *ast.CallExpr, path string, sink *types.Interface) []Finding {
	var out []Finding
	report := func(at ast.Node, format string, args ...any) {
		f := pkg.findingf(at, "purerun", format, args...)
		f.Msg += " [measurement path: " + path + "]"
		out = append(out, f)
	}
	if name, ok := pkgCall(pkg.Info, call, "time"); ok && pureRunClockCalls[name] {
		report(call, "time.%s inside a measurement path makes the record depend on the wall clock", name)
		return out
	}
	for _, logPath := range []string{"log", "log/slog"} {
		if name, ok := pkgCall(pkg.Info, call, logPath); ok {
			report(call, "%s.%s inside a measurement path is an observable side effect; return data and log outside the run", shortPath(logPath), name)
			return out
		}
	}
	if name, ok := pkgCall(pkg.Info, call, "fmt"); ok {
		if name == "Print" || name == "Println" || name == "Printf" {
			report(call, "fmt.%s inside a measurement path writes to stdout; return data and print outside the run", name)
		}
		if (name == "Fprint" || name == "Fprintln" || name == "Fprintf") && len(call.Args) > 0 && isOsStdStream(pkg, call.Args[0]) {
			report(call, "fmt.%s to a process stream inside a measurement path is an observable side effect", name)
		}
		return out
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "close":
				report(call, "close inside a measurement path couples the record to goroutine scheduling")
			case "print", "println":
				report(call, "%s inside a measurement path writes to stderr; return data instead", b.Name())
			}
			return out
		}
	}
	// A Sink delivery from inside a measurement path inverts the
	// pipeline's layering: Accept is the campaign engine's commit step
	// (in configuration order, once per point, single-threaded), and a
	// device pushing into a sink would fire it per attempt, out of
	// order, and concurrently. Flagged on any receiver — local, field,
	// or parameter — that satisfies campaign.Sink.
	if sink != nil && sinkAcceptCall(pkg, call, sink) {
		report(call, "campaign.Sink Accept inside a measurement path delivers results from the device; sinks are driven only by the campaign engine after a point commits")
		return out
	}
	// Pointer-receiver method call on a package-level variable (e.g. a
	// metrics counter's Inc, a registry's Store) — the exact pattern the
	// observability plane must not introduce. Value-receiver methods get
	// a copy and cannot mutate the variable (binary.LittleEndian's
	// encoders are the canonical false positive). Pool scratch is
	// allowed.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && methodHasPointerReceiver(s) {
			if v := baseMutatedVar(pkg, sel.X); v != nil && isPackageLevelVar(v) {
				recvType := methodRecvTypeString(s)
				if _, allowed := pureRunPoolAllow[recvType]; !allowed {
					report(call, "method call %s.%s on package-level %s.%s inside a measurement path mutates or observes shared state",
						recvType, sel.Sel.Name, shortPath(v.Pkg().Path()), v.Name())
				}
			}
		}
	}
	return out
}

// sinkAcceptCall reports whether call is a method call named Accept on
// a value satisfying campaign.Sink — the interface itself, or any
// concrete sink type (by value or pointer).
func sinkAcceptCall(pkg *Package, call *ast.CallExpr, sink *types.Interface) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Accept" {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	return types.Implements(recv, sink) || types.Implements(types.NewPointer(recv), sink)
}

// methodHasPointerReceiver reports whether the selected method is
// declared on a pointer receiver (and so can mutate the receiver).
func methodHasPointerReceiver(s *types.Selection) bool {
	m, ok := s.Obj().(*types.Func)
	if !ok {
		return false
	}
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isPtr := sig.Recv().Type().(*types.Pointer)
	return isPtr
}

// methodRecvTypeString renders the receiver's named type, e.g.
// "sync.Pool".
func methodRecvTypeString(s *types.Selection) string {
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.TypeString(t, func(p *types.Package) string { return shortPath(p.Path()) })
}

// baseMutatedVar resolves the base variable of an lvalue or receiver
// expression: x, x.f, x[i], *x, x.f[i].g all resolve to x. Returns nil
// for expressions not rooted in a variable.
func baseMutatedVar(pkg *Package, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
					v, _ := pkg.Info.Uses[x.Sel].(*types.Var)
					return v
				}
			}
			e = x.X
		case *ast.Ident:
			if obj := pkg.Info.Defs[x]; obj != nil {
				v, _ := obj.(*types.Var)
				return v
			}
			v, _ := pkg.Info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// isPackageLevelVar reports whether v is declared at package scope.
func isPackageLevelVar(v *types.Var) bool {
	return v != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isCtxDoneExpr reports whether e is a ctx.Done() call on a
// context.Context value.
func isCtxDoneExpr(pkg *Package, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := pkg.Info.Types[sel.X]
	return ok && isContextType(tv.Type)
}

// selectOnlyCtxDone reports whether every comm clause of the select is a
// cancellation receive (or default).
func selectOnlyCtxDone(pkg *Package, s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil { // default clause
			continue
		}
		var recvX ast.Expr
		switch c := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				recvX = u.X
			}
		case *ast.AssignStmt:
			if len(c.Rhs) == 1 {
				if u, ok := ast.Unparen(c.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					recvX = u.X
				}
			}
		}
		if recvX == nil || !isCtxDoneExpr(pkg, recvX) {
			return false
		}
	}
	return true
}

// isOsStdStream reports whether e is os.Stdout or os.Stderr.
func isOsStdStream(pkg *Package, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !pkgName(pkg.Info, id, "os") {
		return false
	}
	return sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr"
}
