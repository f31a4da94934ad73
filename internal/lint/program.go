package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// Program is the whole-module view handed to interprocedural rules: all
// analyzed packages, the call graph over them, and the functions marked
// as analysis roots with //lint:root directives.
//
// A root directive lives in a function's doc comment:
//
//	//lint:root <rule> <reason>
//
// and declares the function an entry point for that rule's reachability
// analysis (e.g. a blessed hot path for hotalloc). Like //lint:ignore,
// the reason is mandatory and audited: an empty reason, an unknown or
// non-rootable rule, or a directive outside a function doc comment is
// itself a finding.
type Program struct {
	Pkgs  []*Package
	Graph *Graph

	roots map[string][]*Node // rule name -> marked nodes, declaration order
}

// ProgramRule is a rule that reasons over the whole program at once.
// Its per-package Check is expected to return nil; Run invokes
// CheckProgram exactly once after every package's syntactic pass.
type ProgramRule interface {
	Rule
	CheckProgram(prog *Program) []Finding
}

// rootableRules are the rules that accept //lint:root marks. purerun
// also auto-detects device.Run implementations and meter entry points;
// hotalloc is driven entirely by marks so the blessed hot paths stay an
// explicit, reviewable set.
var rootableRules = map[string]bool{
	"purerun":  true,
	"hotalloc": true,
}

var rootRE = regexp.MustCompile(`^//lint:root(?:\s+(\S+))?(?:\s+(.*\S))?\s*$`)

// NewProgram builds the program view: the call graph plus parsed root
// marks. The returned findings report //lint:root misuse and are not
// suppressible.
func NewProgram(pkgs []*Package) (*Program, []Finding) {
	prog := &Program{
		Pkgs:  pkgs,
		Graph: BuildGraph(pkgs),
		roots: map[string][]*Node{},
	}
	var misuse []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			// Comments attached to function declarations are the only
			// legal home for root marks.
			inDoc := map[*ast.Comment]*ast.FuncDecl{}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, c := range fd.Doc.List {
					inDoc[c] = fd
				}
			}
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					m := rootRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					rule, reason := m[1], m[2]
					pos := pkg.Fset.Position(c.Pos())
					fd := inDoc[c]
					switch {
					case fd == nil:
						misuse = append(misuse, Finding{Pos: pos, Rule: IgnoreRule,
							Msg: "//lint:root must appear in a function's doc comment"})
					case rule == "" || !rootableRules[rule]:
						misuse = append(misuse, Finding{Pos: pos, Rule: IgnoreRule,
							Msg: "//lint:root needs a rootable rule (purerun or hotalloc)"})
					case reason == "":
						misuse = append(misuse, Finding{Pos: pos, Rule: IgnoreRule,
							Msg: "//lint:root " + rule + " needs a non-empty reason"})
					default:
						if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
							if n := prog.Graph.NodeFor(fn); n != nil {
								prog.roots[rule] = append(prog.roots[rule], n)
							}
						}
					}
				}
			}
		}
	}
	return prog, misuse
}

// RootNodes returns the functions marked //lint:root for the rule, in
// declaration order.
func (p *Program) RootNodes(rule string) []*Node { return p.roots[rule] }

// Position returns the display position for a node in any package.
func (p *Program) Position(n *Node) token.Position {
	return n.Pkg.Fset.Position(n.Pos())
}

// LookupType resolves a named type by package path and name, searching
// the analyzed packages first and then their transitive imports (so a
// fixture package that merely imports energyprop/internal/device still
// sees the Device interface).
func (p *Program) LookupType(pkgPath, name string) types.Object {
	seen := map[*types.Package]bool{}
	var search func(tp *types.Package) types.Object
	search = func(tp *types.Package) types.Object {
		if tp == nil || seen[tp] {
			return nil
		}
		seen[tp] = true
		if tp.Path() == pkgPath {
			return tp.Scope().Lookup(name)
		}
		for _, imp := range tp.Imports() {
			if obj := search(imp); obj != nil {
				return obj
			}
		}
		return nil
	}
	for _, pkg := range p.Pkgs {
		if obj := search(pkg.Types); obj != nil {
			return obj
		}
	}
	return nil
}
