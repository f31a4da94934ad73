// Command epvet runs the repo's domain lint rules (internal/lint) over
// the module and reports findings as `file:line: rule: message`, exiting
// non-zero if any survive. It enforces the determinism and measurement
// contracts the methodology rests on, and its unused rule reports every
// function under internal/ that no main, init, package-level var,
// root-package export or stdlib interface method reaches; see DESIGN.md
// for the rule table.
//
// Usage:
//
//	epvet [-list] [-json] [-baseline file] [packages]
//
// Packages are directories relative to the working directory; a trailing
// /... loads the whole subtree. With no arguments epvet checks ./...
//
// -json writes the machine-readable report (packages, files, suppressed,
// findings) to stdout instead of text lines — the shape CI archives as
// an artifact and commits as epvet_baseline.json.
//
// -baseline file compares the run against a committed baseline: findings
// recorded there are tolerated debt, and only findings absent from the
// baseline fail the run. Baseline identity is (file, rule, message) —
// line numbers are ignored so unrelated edits don't churn the file. A
// run that suppresses more findings than the baseline records fails too,
// so a new //lint:ignore shows up as a baseline diff in review.
//
// Suppress an individual finding with an in-source directive:
//
//	//lint:ignore <rule> <non-empty reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"energyprop/internal/cli"
	"energyprop/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "print the rule registry and exit")
	asJSON := flag.Bool("json", false, "write the report as JSON to stdout")
	baseline := flag.String("baseline", "", "tolerate findings recorded in this baseline file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: epvet [-list] [-json] [-baseline file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	rules := lint.AllRules()
	if *list {
		for _, r := range rules {
			fmt.Printf("%-11s %s\n", r.Name(), r.Doc())
		}
		return
	}
	code, err := run(flag.Args(), rules, *asJSON, *baseline)
	if err != nil {
		cli.Errorf(os.Stderr, "epvet: %v\n", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string, rules []lint.Rule, asJSON bool, baselinePath string) (int, error) {
	pkgs, err := loadArgs(args)
	if err != nil {
		return 0, err
	}
	findings, sum := lint.Run(pkgs, rules)
	report := lint.NewReport(findings, sum)

	failing := report.Findings
	baseSuppressed := sum.Suppressed
	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			return 0, fmt.Errorf("reading baseline: %w", err)
		}
		base, err := lint.ParseReport(data)
		if err != nil {
			return 0, err
		}
		failing = report.Diff(base)
		baseSuppressed = base.Suppressed
	}

	out := cli.NewWriter(os.Stdout)
	if asJSON {
		data, err := report.Marshal()
		if err != nil {
			return 0, err
		}
		out.Printf("%s", data)
	} else {
		for _, f := range failing {
			out.Println(f)
		}
	}
	if err := out.Err(); err != nil {
		return 0, fmt.Errorf("writing report: %w", err)
	}
	if baselinePath != "" {
		baselined := len(report.Findings) - len(failing)
		cli.Errorf(os.Stderr, "epvet: %d packages, %d files, %d findings (%d baselined, %d new), %d suppressed\n",
			sum.Packages, sum.Files, sum.Reported, baselined, len(failing), sum.Suppressed)
	} else {
		cli.Errorf(os.Stderr, "epvet: %d packages, %d files, %d findings, %d suppressed\n",
			sum.Packages, sum.Files, sum.Reported, sum.Suppressed)
	}
	newSuppressions := sum.Suppressed > baseSuppressed
	if newSuppressions {
		cli.Errorf(os.Stderr, "epvet: %d suppressed, the baseline records %d; review the new //lint:ignore directives and regenerate the baseline with -json\n",
			sum.Suppressed, baseSuppressed)
	}
	if len(failing) > 0 || newSuppressions {
		return 1, nil
	}
	return 0, nil
}

// loadArgs resolves package arguments (dir or dir/...) against the
// module root, deduplicating by import path.
func loadArgs(args []string) ([]*lint.Package, error) {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root, module, err := lint.FindModuleRoot(cwd)
	if err != nil {
		return nil, err
	}
	loader := lint.NewLoader(root, module)

	seen := map[string]bool{}
	var pkgs []*lint.Package
	add := func(ps ...*lint.Package) {
		for _, p := range ps {
			if !seen[p.Path] {
				seen[p.Path] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	for _, a := range args {
		if rest, ok := strings.CutSuffix(a, "..."); ok {
			dir := filepath.Join(cwd, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			ps, err := loader.LoadTree(dir)
			if err != nil {
				return nil, err
			}
			add(ps...)
			continue
		}
		p, err := loader.Load(filepath.Join(cwd, filepath.FromSlash(a)))
		if err != nil {
			return nil, err
		}
		add(p)
	}
	return pkgs, nil
}
