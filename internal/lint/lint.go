// Package lint is the repo's domain-specific static-analysis engine. It
// enforces, at the source level, the two contracts the whole methodology
// rests on (see DESIGN.md):
//
//   - Determinism: repeated campaigns over the same (BS, G, R) grid must
//     produce byte-identical records, whatever the worker count or sweep
//     order. Nothing in the simulators or the measurement stack may read
//     wall-clock time or an unseeded global random source, and every
//     per-configuration seed must derive from the hashed (seed, BS, G, R)
//     identity rather than a loop index.
//   - Measurement hygiene: measured floats are compared with tolerances,
//     errors from the measurement pipeline are never silently dropped,
//     and every exported fan-out entry point is cancellable.
//
// The engine is stdlib-only (go/parser + go/ast + go/types); it has no
// knowledge of build systems beyond go.mod. Rules implement the Rule
// interface and are registered in AllRules; cmd/epvet is the CLI driver
// and TestTreeIsClean runs the full registry over the real tree inside
// `go test ./...` so tier-1 enforces the contracts on every PR.
//
// Findings can be suppressed with an in-source directive:
//
//	//lint:ignore <rule> <reason>
//
// placed on the offending line or alone on the line above it. The reason
// is mandatory — an empty reason is itself a finding — and a directive
// that suppresses nothing is reported as stale, so suppressions cannot
// rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the canonical file:line: rule: message
// form that cmd/epvet prints and the fixture tests assert on.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// File is one parsed source file with its raw bytes (needed to decide
// whether an ignore directive shares its line with code).
type File struct {
	Name string // display name, root-relative for tree loads
	Src  []byte
	AST  *ast.File
}

// Package is one type-checked package presented to the rules.
type Package struct {
	Path  string // import path, e.g. energyprop/internal/meter
	Fset  *token.FileSet
	Files []*File
	Types *types.Package
	Info  *types.Info
}

// Rule is one invariant checker. Check must be pure: same package in,
// same findings out, no retained state between packages.
type Rule interface {
	// Name is the short identifier used in findings and ignore
	// directives (e.g. "nodeterm").
	Name() string
	// Doc is a one-line description of the enforced invariant.
	Doc() string
	Check(pkg *Package) []Finding
}

// AllRules returns the full registry in reporting order. The first five
// are the per-package v1 rules; purerun, hotalloc, lockorder and unused
// (and seedflow's v2 taint pass) reason over the whole-program call graph.
func AllRules() []Rule {
	return []Rule{
		NoDeterm{},
		SeedFlow{},
		FloatEq{},
		DroppedErr{},
		CtxSweep{},
		PureRun{},
		HotAlloc{},
		LockOrder{},
		Unused{},
	}
}

// IgnoreRule is the pseudo-rule name under which the engine reports
// problems with //lint:ignore directives themselves (missing reason,
// unknown rule, stale suppression). It cannot be suppressed.
const IgnoreRule = "ignore"

// Summary is the outcome of a Run, printed by cmd/epvet.
type Summary struct {
	Packages   int
	Files      int
	Reported   int // findings returned
	Suppressed int // findings matched by a //lint:ignore directive
}

var ignoreRE = regexp.MustCompile(`^//lint:ignore(?:\s+(\S+))?(?:\s+(.*\S))?\s*$`)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos    token.Position
	target int // line the directive suppresses
	rule   string
	reason string
	used   bool
}

// parseIgnores extracts the file's ignore directives. A directive that
// shares its line with code applies to that line; a directive alone on
// its line applies to the next line.
func parseIgnores(fset *token.FileSet, f *File) []*ignoreDirective {
	var out []*ignoreDirective
	for _, cg := range f.AST.Comments {
		for _, c := range cg.List {
			m := ignoreRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := fset.Position(c.Pos())
			d := &ignoreDirective{pos: pos, rule: m[1], reason: m[2], target: pos.Line}
			if lineIsBlankBefore(f.Src, pos) {
				d.target = pos.Line + 1
			}
			out = append(out, d)
		}
	}
	return out
}

// lineIsBlankBefore reports whether the source line holding pos contains
// only whitespace before pos's column (i.e. the comment starts the line).
func lineIsBlankBefore(src []byte, pos token.Position) bool {
	// pos.Offset is the byte offset of the comment start; scan back to
	// the preceding newline.
	for i := pos.Offset - 1; i >= 0; i-- {
		switch src[i] {
		case '\n':
			return true
		case ' ', '\t':
			// keep scanning
		default:
			return false
		}
	}
	return true
}

// Directive is one parsed //lint:ignore directive, exported for the
// suppression audit (TestSuppressionsAreMinimal).
type Directive struct {
	Pos    token.Position
	Target int // line the directive suppresses
	Rule   string
	Reason string
}

// Result is the full outcome of a lint run, including the raw
// pre-suppression findings and every directive seen, so tests can audit
// that each suppression is both minimal and load-bearing.
type Result struct {
	Findings   []Finding   // surviving findings, sorted
	Raw        []Finding   // all rule findings before suppression, sorted
	Directives []Directive // every //lint:ignore directive in the tree
	Summary    Summary
}

// Run applies the rules to every package, resolves //lint:ignore
// directives, and returns the surviving findings sorted by file, line,
// and rule. Directive misuse (empty reason, unknown rule, stale ignore)
// is reported under the "ignore" pseudo-rule.
func Run(pkgs []*Package, rules []Rule) ([]Finding, Summary) {
	res := RunAll(pkgs, rules)
	return res.Findings, res.Summary
}

// RunAll is Run plus the audit surfaces. Suppressions are resolved
// globally — interprocedural rules may report a finding in any file,
// not just the one whose package is being checked — and program rules
// execute once over a shared call graph after the per-package pass.
func RunAll(pkgs []*Package, rules []Rule) Result {
	known := map[string]bool{}
	var progRules []ProgramRule
	for _, r := range rules {
		known[r.Name()] = true
		if pr, ok := r.(ProgramRule); ok {
			progRules = append(progRules, pr)
		}
	}
	var res Result
	sum := &res.Summary

	// Global directive table: file name -> directives, plus flat order.
	ignores := map[string][]*ignoreDirective{}
	var allDirs []*ignoreDirective
	for _, pkg := range pkgs {
		sum.Packages++
		sum.Files += len(pkg.Files)
		for _, f := range pkg.Files {
			ds := parseIgnores(pkg.Fset, f)
			ignores[f.Name] = append(ignores[f.Name], ds...)
			allDirs = append(allDirs, ds...)
		}
	}

	var raw []Finding
	for _, pkg := range pkgs {
		for _, r := range rules {
			raw = append(raw, r.Check(pkg)...)
		}
	}
	var out []Finding
	if len(progRules) > 0 {
		prog, misuse := NewProgram(pkgs)
		out = append(out, misuse...) // //lint:root misuse: unsuppressible
		for _, pr := range progRules {
			raw = append(raw, pr.CheckProgram(prog)...)
		}
	}

	for _, f := range raw {
		suppressed := false
		for _, d := range ignores[f.Pos.Filename] {
			if d.rule == f.Rule && d.target == f.Pos.Line && d.reason != "" {
				d.used = true
				suppressed = true
			}
		}
		if suppressed {
			sum.Suppressed++
			continue
		}
		out = append(out, f)
	}

	for _, d := range allDirs {
		res.Directives = append(res.Directives, Directive{
			Pos: d.pos, Target: d.target, Rule: d.rule, Reason: d.reason,
		})
		switch {
		case d.rule == "":
			out = append(out, Finding{Pos: d.pos, Rule: IgnoreRule,
				Msg: "//lint:ignore needs a rule name and a non-empty reason"})
		case !known[d.rule]:
			out = append(out, Finding{Pos: d.pos, Rule: IgnoreRule,
				Msg: fmt.Sprintf("//lint:ignore names unknown rule %q", d.rule)})
		case d.reason == "":
			out = append(out, Finding{Pos: d.pos, Rule: IgnoreRule,
				Msg: fmt.Sprintf("//lint:ignore %s needs a non-empty reason", d.rule)})
		case !d.used:
			out = append(out, Finding{Pos: d.pos, Rule: IgnoreRule,
				Msg: fmt.Sprintf("stale //lint:ignore: no %s finding on line %d", d.rule, d.target)})
		}
	}
	sortFindings(out)
	sortFindings(raw)
	res.Findings = out
	res.Raw = raw
	sum.Reported = len(out)
	return res
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// --- shared AST/type helpers used by the rules ---

// pkgName reports whether the identifier resolves to an import of the
// given path (e.g. ident "rand" importing "math/rand").
func pkgName(info *types.Info, id *ast.Ident, path string) bool {
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}

// pkgCall matches a call of the form pkgident.Name(...) where pkgident
// imports path; it returns the selected name and true.
func pkgCall(info *types.Info, call *ast.CallExpr, path string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !pkgName(info, id, path) {
		return "", false
	}
	return sel.Sel.Name, true
}

// walkStack walks root depth-first, passing each node together with the
// stack of its ancestors (outermost first). The stack slice is reused
// between calls; callers must not retain it.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// walkNodeBody walks one call-graph node's body in source order with an
// ancestor stack, without descending into nested function literals —
// those are nodes of their own and are analyzed only if reachable
// themselves.
func walkNodeBody(body ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		if _, isLit := n.(*ast.FuncLit); isLit && n != body {
			return false // creation site visited, body pruned
		}
		stack = append(stack, n)
		return true
	})
}

// position returns the finding position for a node, using the file's
// display name.
func (p *Package) position(n ast.Node) token.Position {
	return p.Fset.Position(n.Pos())
}

// findingf builds a Finding at n.
func (p *Package) findingf(n ast.Node, rule, format string, args ...any) Finding {
	return Finding{Pos: p.position(n), Rule: rule, Msg: fmt.Sprintf(format, args...)}
}

// typeIs reports whether t (after following pointers) prints as one of
// the fully-qualified names (e.g. "strings.Builder").
func typeIs(t types.Type, names ...string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	s := types.TypeString(t, nil)
	for _, n := range names {
		if s == n {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return t != nil && types.TypeString(t, nil) == "context.Context"
}

// mentionsIdentLike reports whether expr contains an identifier or
// selector whose name satisfies pred.
func mentionsIdentLike(expr ast.Expr, pred func(name string) bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pred(id.Name) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// exprString renders the expression's source form for messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	if err := printer.Fprint(&b, fset, e); err != nil {
		return "<expr>"
	}
	return b.String()
}
