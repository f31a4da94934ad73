package experiment

import (
	"strings"
	"testing"
)

func TestSVGFiguresRender(t *testing.T) {
	figs, err := SVGFigures(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig1.svg", "fig2.svg", "fig4.svg", "fig6.svg", "fig7.svg", "fig8.svg"}
	if len(figs) != len(want) {
		t.Fatalf("got %d figures, want %d", len(figs), len(want))
	}
	byName := map[string]string{}
	for i, f := range figs {
		if f.Name != want[i] {
			t.Errorf("figure %d is %s, want %s", i, f.Name, want[i])
		}
		byName[f.Name] = f.SVG
		if !strings.HasPrefix(f.SVG, "<svg") || !strings.Contains(f.SVG, "</svg>") {
			t.Errorf("%s: not a complete SVG document", f.Name)
		}
		if len(f.SVG) < 500 {
			t.Errorf("%s: suspiciously small (%d bytes)", f.Name, len(f.SVG))
		}
	}
	// The front figures must include square markers (the paper's
	// convention for Pareto points) and circle clouds.
	for _, name := range []string{"fig2.svg", "fig7.svg", "fig8.svg"} {
		if !strings.Contains(byName[name], "<circle") {
			t.Errorf("%s: missing configuration cloud", name)
		}
		if !strings.Contains(byName[name], "Pareto front") {
			t.Errorf("%s: missing front legend", name)
		}
	}
}

func TestSVGFiguresDeterministic(t *testing.T) {
	a, err := SVGFigures(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SVGFigures(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s: not deterministic", a[i].Name)
		}
	}
}
