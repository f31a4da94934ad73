package lint

import (
	"go/ast"
)

// determScoped is the set of packages under the determinism contract:
// everything that produces, schedules, or measures a configuration's
// record. A wall-clock read or a global random draw in any of them makes
// worker scheduling observable in the output, which PR 1's
// order-independence guarantee forbids.
var determScoped = map[string]bool{
	"energyprop/internal/gpusim":     true,
	"energyprop/internal/cpusim":     true,
	"energyprop/internal/dense":      true,
	"energyprop/internal/meter":      true,
	"energyprop/internal/campaign":   true,
	"energyprop/internal/device":     true,
	"energyprop/internal/service":    true,
	"energyprop/internal/experiment": true,
	"energyprop/internal/fault":      true,
	"energyprop/internal/fleet":      true,
	"energyprop/internal/policy":     true,
	"energyprop/internal/randsrc":    true,
	"energyprop/internal/workload":   true,
}

// randConstructors are the math/rand package functions that *build*
// explicitly seeded generators — the sanctioned pattern. Every other
// package-level function draws from the shared global source, whose
// state depends on call order across goroutines.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
	// math/rand/v2 constructors
	"NewPCG":     true,
	"NewChaCha8": true,
}

// NoDeterm forbids wall-clock reads (time.Now, time.Since) and global
// math/rand draws inside the simulator and measurement packages. Both
// make a measured record depend on when and in what order the point ran,
// not only on (seed, BS, G, R).
type NoDeterm struct{}

func (NoDeterm) Name() string { return "nodeterm" }

func (NoDeterm) Doc() string {
	return "no wall-clock or global math/rand calls in simulator/measurement packages; inject a clock or a seeded *rand.Rand"
}

func (NoDeterm) Check(pkg *Package) []Finding {
	if !determScoped[pkg.Path] {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgCall(pkg.Info, call, "time"); ok {
				if name == "Now" || name == "Since" {
					out = append(out, pkg.findingf(call, "nodeterm",
						"time.%s makes the record depend on wall-clock; inject a clock or take durations from the model", name))
				}
				return true
			}
			for _, path := range []string{"math/rand", "math/rand/v2"} {
				if name, ok := pkgCall(pkg.Info, call, path); ok && !randConstructors[name] {
					out = append(out, pkg.findingf(call, "nodeterm",
						"rand.%s (import %q) draws from the shared global source whose state depends on call order; use an explicit seeded *rand.Rand",
						name, path))
				}
			}
			return true
		})
	}
	return out
}
