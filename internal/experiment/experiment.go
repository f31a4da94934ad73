// Package experiment is the harness that regenerates every table and
// figure of the paper's evaluation: a registry of named experiments, each
// producing one or more text/CSV-renderable tables from the simulators,
// the EP analyzers, and the measurement methodology. cmd/epstudy is the
// command-line front end; the root-level benchmarks run the same
// experiments under testing.B.
package experiment

import (
	"fmt"
	"sort"
	"strings"
)

// Options configure an experiment run.
type Options struct {
	// Seed drives every stochastic element (meter noise); runs with equal
	// seeds are bit-identical.
	Seed int64
	// Quick shrinks sweeps for tests and benchmarks (fewer sizes, fewer
	// measured repetitions) without changing any qualitative outcome.
	Quick bool
	// Workers bounds the fan-out of the measured campaigns and of the
	// figures' GPU sweeps (0 = one per CPU). Results are identical for
	// every worker count.
	Workers int
}

// Table is one rendered result artifact (a paper table, or one figure's
// underlying series).
type Table struct {
	// Title names the artifact, e.g. "Fig 7: K40c local Pareto front
	// (N=10240)".
	Title string
	// Columns are the header names.
	Columns []string
	// Rows hold the cells, len(Rows[i]) == len(Columns).
	Rows [][]string
	// Notes are free-form lines appended after the table (verdicts,
	// paper-vs-measured comparisons).
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render produces an aligned plain-text rendering.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV produces a comma-separated rendering (no notes).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		quoted := make([]string, len(row))
		for i, cell := range row {
			if strings.ContainsAny(cell, ",\"") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			quoted[i] = cell
		}
		b.WriteString(strings.Join(quoted, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// Runner produces an experiment's tables.
type Runner func(opt Options) ([]*Table, error)

// Experiment is one registered paper artifact.
type Experiment struct {
	// ID is the registry key, e.g. "fig7".
	ID string
	// Title is a one-line description.
	Title string
	// Paper states what the paper reports for this artifact (the
	// comparison target recorded in EXPERIMENTS.md).
	Paper string
	// Run produces the tables.
	Run Runner
}

var registry = map[string]Experiment{}

// Register adds an experiment; duplicate IDs panic (programming error at
// init time).
func Register(e Experiment) {
	if e.ID == "" || e.Run == nil {
		panic("experiment: invalid registration")
	}
	if _, dup := registry[e.ID]; dup {
		panic("experiment: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiment: unknown id %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// IDs lists the registered experiment IDs in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunAll executes every registered experiment in ID order and returns the
// concatenated tables.
func RunAll(opt Options) ([]*Table, error) {
	var out []*Table
	for _, id := range IDs() {
		e := registry[id]
		tables, err := e.Run(opt)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		out = append(out, tables...)
	}
	return out, nil
}
