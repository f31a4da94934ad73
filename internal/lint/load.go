package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// FindModuleRoot walks upward from dir to the directory holding go.mod
// and returns that directory and the module path declared in it.
func FindModuleRoot(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			m := moduleRE.FindSubmatch(data)
			if m == nil {
				return "", "", fmt.Errorf("lint: %s/go.mod has no module line", abs)
			}
			return abs, string(m[1]), nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		abs = parent
	}
}

// Loader parses and type-checks the module's packages from source, with
// no toolchain invocation: module-internal imports are resolved against
// the module root, standard-library imports through go/importer's
// source importer (which reads GOROOT sources and therefore works
// offline). The loader doubles as the types.Importer the checker uses.
type Loader struct {
	Fset   *token.FileSet
	root   string
	module string
	std    types.Importer
	pkgs   map[string]*Package // by import path
	active map[string]bool     // cycle guard
}

// NewLoader builds a loader for the module rooted at root. Cgo is
// disabled for the source importer so packages like net type-check
// from pure-Go sources.
func NewLoader(root, module string) *Loader {
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:   fset,
		root:   root,
		module: module,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*Package{},
		active: map[string]bool{},
	}
}

// Import implements types.Importer: module-internal paths load
// recursively from source, everything else is delegated to the
// standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps an import path to its directory under the module root.
func (l *Loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.module), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// pathFor maps a directory under the module root to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.root)
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}

// Load parses and type-checks the package in dir (a directory under the
// module root). Test files are excluded: the rules govern production
// code, and tests legitimately use fixed literal seeds.
func (l *Loader) Load(dir string) (*Package, error) {
	path, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.load(path)
}

func (l *Loader) load(importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	if l.active[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.active[importPath] = true
	defer delete(l.active, importPath)

	dir := l.dirFor(importPath)
	names, err := goFileNames(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	pkg := &Package{Path: importPath, Fset: l.Fset}
	var astFiles []*ast.File
	for _, name := range names {
		full := filepath.Join(dir, name)
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		display := name
		if rel, err := filepath.Rel(l.root, full); err == nil {
			display = filepath.ToSlash(rel)
		}
		af, err := parser.ParseFile(l.Fset, display, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, &File{Name: display, Src: src, AST: af})
		astFiles = append(astFiles, af)
	}
	if err := l.check(pkg, astFiles); err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// check runs go/types over the parsed files, populating pkg.Types and
// pkg.Info. Type errors are hard failures: the rules assume complete
// type information, and the tree must compile anyway.
func (l *Loader) check(pkg *Package, files []*ast.File) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l, FakeImportC: true}
	tpkg, err := conf.Check(pkg.Path, l.Fset, files, info)
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// goFileNames lists the directory's buildable non-test Go files, sorted.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") ||
			strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadTree loads every package in the subtree rooted at dir.
func (l *Loader) LoadTree(dir string) ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		names, err := goFileNames(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		p, err := l.Load(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
