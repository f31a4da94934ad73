package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// seedFlowScoped is the set of packages where per-point seeding happens.
// Here a rand.NewSource argument IS the measurement's identity: PR 1's
// order-independence proof rests on every meter seed being a pure
// function of (campaign seed, config identity), which the hashed
// device.ConfigSeed helper computes. A seed built from a loop index or
// slice position reintroduces exactly the historical `spec.Seed + i*7919`
// bug.
var seedFlowScoped = map[string]bool{
	"energyprop/internal/campaign": true,
	"energyprop/internal/device":   true,
	"energyprop/internal/meter":    true,
	"energyprop/internal/service":  true,
	"energyprop/internal/fault":    true,
	"energyprop/internal/fleet":    true,
	"energyprop/internal/policy":   true,
	"energyprop/internal/randsrc":  true,
}

// seedFlowStrict is the subset of scoped packages where device.ConfigSeed
// is the only blessed source: campaign and service code sit above the
// device abstraction, so any generator seed they hand off must carry
// taint from the hashed (seed, config) identity. Meter, device, fault,
// and fleet stay on the lenient rule — they are the layers that *receive*
// an already-derived seed value, as does randsrc, the generator they
// seed.
var seedFlowStrict = map[string]bool{
	"energyprop/internal/campaign": true,
	"energyprop/internal/service":  true,
}

// SeedFlow (v2) checks seed hygiene with whole-program taint instead of
// name matching. Sinks are the rand constructors (rand.NewSource,
// rand.NewPCG) plus every seed conduit the dataflow engine discovers —
// a seed-named parameter whose value transitively reaches a rand
// constructor, e.g. meter.NewMeter's seed. At every sink or conduit
// argument in the scoped packages:
//
//   - the argument must not derive from an enclosing loop variable
//     (outside a seed-mixing helper call, whose job is folding identity
//     into the hash);
//   - in the strict packages, the argument must carry taint from
//     device.ConfigSeed — through any chain of locals, struct fields,
//     and helper returns. Laundering a raw seed through a seed-named
//     local or helper no longer passes;
//   - in the lenient packages, the v1 rule stands: the argument must at
//     least visibly derive from seed-named material.
//
// The rule's strict mode also covers the memoization layer: memo.Cache
// keys in the cache-key-scoped packages must flow through a canonical
// digest helper (memo.Prefix.Digest or a *Key wrapper), never
// fmt.Sprintf — see cachekey.go.
type SeedFlow struct{}

func (SeedFlow) Name() string { return "seedflow" }

func (SeedFlow) Doc() string {
	return "rand seeds (and seed-conduit arguments) in measurement-pipeline code must carry taint from device.ConfigSeed, never a loop index; memo.Cache keys must flow through memo.Prefix.Digest, never fmt.Sprintf"
}

// seedSources are the math/rand constructors whose arguments carry seed
// material.
var seedSources = map[string]bool{
	"NewSource": true, // math/rand
	"NewPCG":    true, // math/rand/v2
}

// Check handles the per-package cache-key half of the rule; the seed
// checks are interprocedural and live in CheckProgram.
func (SeedFlow) Check(pkg *Package) []Finding {
	if cacheKeyScoped[pkg.Path] {
		return checkCacheKeys(pkg)
	}
	return nil
}

func (SeedFlow) CheckProgram(prog *Program) []Finding {
	anyScoped := false
	for _, pkg := range prog.Pkgs {
		if seedFlowScoped[pkg.Path] {
			anyScoped = true
			break
		}
	}
	if !anyScoped {
		return nil
	}
	st := computeSeedTaint(prog)
	var out []Finding
	for _, pkg := range prog.Pkgs {
		if seedFlowScoped[pkg.Path] {
			out = append(out, checkSeedSites(pkg, st)...)
		}
	}
	return out
}

// seedSiteArgs returns the arguments of a call that carry seed material
// into a generator, together with the sink's display name: every
// argument of a rand constructor, or the conduit-parameter arguments of
// a discovered conduit function.
func seedSiteArgs(pkg *Package, call *ast.CallExpr, st *seedTaint) (string, []ast.Expr) {
	if name, ok := randSeedSink(pkg, call); ok {
		return name, call.Args
	}
	callee := staticCallee(pkg, call)
	idxs := st.conduits[callee]
	if len(idxs) == 0 {
		return "", nil
	}
	var args []ast.Expr
	for _, i := range idxs {
		if i < len(call.Args) {
			args = append(args, call.Args[i])
		}
	}
	name := callee.Name()
	if callee.Pkg() != nil {
		name = shortPath(callee.Pkg().Path()) + "." + name
	}
	return name, args
}

// checkSeedSites applies the loop-variable and taint checks to every
// sink and conduit argument in one scoped package.
func checkSeedSites(pkg *Package, st *seedTaint) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		walkStack(f.AST, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			sink, args := seedSiteArgs(pkg, call, st)
			if len(args) == 0 {
				return
			}
			loopVars := enclosingLoopVars(pkg.Info, stack)
			for _, arg := range args {
				if id := loopVarOutsideSeedHelper(pkg.Info, arg, loopVars); id != nil {
					out = append(out, pkg.findingf(arg, "seedflow",
						"seed for %s derives from loop variable %q, making the record depend on sweep order; derive it from the hashed (seed, config) identity",
						sink, id.Name))
					continue
				}
				if st.exprBlessed(pkg, arg) {
					continue
				}
				if seedFlowStrict[pkg.Path] {
					out = append(out, pkg.findingf(arg, "seedflow",
						"seed for %s is %s, which bypasses the device-generic seed helper: no taint from device.ConfigSeed(seed, config) reaches it, so the backends do not share one seeding contract",
						sink, exprString(pkg.Fset, arg)))
					continue
				}
				if !mentionsSeed(arg) {
					out = append(out, pkg.findingf(arg, "seedflow",
						"seed for %s is %s, which does not derive from a campaign seed; thread the seed (e.g. via the hashed device.ConfigSeed helper) instead",
						sink, exprString(pkg.Fset, arg)))
				}
			}
		})
	}
	return out
}

// enclosingLoopVars collects the objects of index/key/value variables
// declared by for and range statements on the ancestor stack.
func enclosingLoopVars(info *types.Info, stack []ast.Node) map[types.Object]bool {
	vars := map[types.Object]bool{}
	addIdent := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	for _, n := range stack {
		switch s := n.(type) {
		case *ast.ForStmt:
			if init, ok := s.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					addIdent(lhs)
				}
			}
		case *ast.RangeStmt:
			if s.Tok == token.DEFINE {
				if s.Key != nil {
					addIdent(s.Key)
				}
				if s.Value != nil {
					addIdent(s.Value)
				}
			}
		}
	}
	return vars
}

// loopVarOutsideSeedHelper returns the first identifier in expr that
// resolves to one of the loop-variable objects, skipping the arguments
// of seed-named mixing helpers: configSeed(seed, c) legitimately feeds
// the loop *value* (the configuration identity) into the hash, and the
// helper is the trust boundary. What it cannot tell apart is a helper
// handed the raw index as its identity — that stays a review concern.
func loopVarOutsideSeedHelper(info *types.Info, expr ast.Expr, objs map[types.Object]bool) *ast.Ident {
	if len(objs) == 0 {
		return nil
	}
	var found *ast.Ident
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok && calleeMentionsSeed(c) {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				found = id
				return false
			}
		}
		return true
	})
	return found
}

// calleeMentionsSeed reports whether the call's function name contains
// "seed" (ConfigSeed, configSeed, DeriveSeed, ...).
func calleeMentionsSeed(c *ast.CallExpr) bool {
	var name string
	switch fun := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "seed")
}

// mentionsSeed reports whether the expression references anything
// seed-named: a variable, parameter, struct field, or helper function
// (configSeed) whose name contains "seed".
func mentionsSeed(expr ast.Expr) bool {
	return mentionsIdentLike(expr, func(name string) bool {
		return strings.Contains(strings.ToLower(name), "seed")
	})
}
