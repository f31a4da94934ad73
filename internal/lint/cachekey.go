package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The seedflow rule's strict mode extends to cache-key construction:
// the memoization layer (internal/memo) is only exact because its keys
// are canonical digests over everything a measurement is a function of.
// A key assembled with fmt.Sprintf is not injective over field
// boundaries ("ab"+"c" and "a"+"bc" collide), so any key handed to
// memo.Cache in the packages below must flow through memo.Prefix.Digest
// or a key-derivation helper wrapping it.

// cacheKeyScoped is the set of packages whose memo.Cache keys address
// measured results, where an aliased key silently returns the wrong
// measurement.
var cacheKeyScoped = map[string]bool{
	"energyprop/internal/memo":     true,
	"energyprop/internal/campaign": true,
	"energyprop/internal/service":  true,
	"energyprop/cmd/gpusweep":      true,
	"energyprop/cmd/epstudy":       true,
}

// checkCacheKeys flags memo.Cache.Do calls whose key argument is
// built with fmt formatting or does not visibly flow through a
// digest/key-derivation helper.
func checkCacheKeys(pkg *Package) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isCacheDo(pkg.Info, call) || len(call.Args) == 0 {
				return true
			}
			key := call.Args[0]
			if name := fmtFormatCallIn(pkg.Info, key); name != "" {
				out = append(out, pkg.findingf(key, "seedflow",
					"cache key for Cache.Do is built with fmt.%s, which is not injective over field boundaries; derive it with memo.Prefix.Digest (or a key helper wrapping it)",
					name))
				return true
			}
			if !derivesCanonicalKey(key) {
				out = append(out, pkg.findingf(key, "seedflow",
					"cache key for Cache.Do is %s, which does not flow through a canonical digest helper; derive it with memo.Prefix.Digest (or a key helper wrapping it) so the key covers every field a result depends on",
					exprString(pkg.Fset, key)))
			}
			return true
		})
	}
	return out
}

// isCacheDo reports whether the call is a call of memo.Cache's Do
// (through pointers and generic instantiation, including aliases like
// campaign.PointCache).
func isCacheDo(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Do" {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "energyprop/internal/memo" && obj.Name() == "Cache"
}

// fmtFormatCallIn returns the name of the first fmt string-building
// call inside expr ("" if none).
func fmtFormatCallIn(info *types.Info, expr ast.Expr) string {
	found := ""
	ast.Inspect(expr, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok {
			if name, ok := pkgCall(info, c, "fmt"); ok {
				found = name
				return false
			}
		}
		return true
	})
	return found
}

// derivesCanonicalKey reports whether the expression visibly flows
// through key-derivation machinery: a call to a helper whose name
// mentions digest/key/seed (memo.Prefix.Digest, outcomeKey,
// device.ConfigSeed), or an identifier so named carrying a precomputed
// key.
func derivesCanonicalKey(expr ast.Expr) bool {
	return mentionsIdentLike(expr, func(name string) bool {
		l := strings.ToLower(name)
		return strings.Contains(l, "key") || strings.Contains(l, "digest") || strings.Contains(l, "seed")
	})
}
