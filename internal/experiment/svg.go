package experiment

import (
	"fmt"

	"energyprop/internal/cpusim"
	"energyprop/internal/dense"
	"energyprop/internal/gpusim"
	"energyprop/internal/pareto"
	"energyprop/internal/plot"
)

// SVGFigure is one rendered figure: its file name and SVG document.
type SVGFigure struct {
	Name string
	SVG  string
}

// SVGFigures renders the paper's figures as SVG images, in a fixed
// order: fig1.svg, fig2.svg, fig4.svg, fig6.svg, fig7.svg, fig8.svg.
// cmd/epstudy's -svgdir flag writes them to disk.
func SVGFigures(opt Options) ([]SVGFigure, error) {
	builders := []struct {
		name  string
		build func(Options) (*plot.Plot, error)
	}{
		{"fig1.svg", svgFig1},
		{"fig2.svg", svgFig2},
		{"fig4.svg", svgFig4},
		{"fig6.svg", svgFig6},
		{"fig7.svg", svgFig7},
		{"fig8.svg", svgFig8},
	}
	out := make([]SVGFigure, 0, len(builders))
	for _, b := range builders {
		p, err := b.build(opt)
		if err != nil {
			return nil, fmt.Errorf("experiment: building %s: %w", b.name, err)
		}
		svg, err := p.SVG()
		if err != nil {
			return nil, fmt.Errorf("experiment: rendering %s: %w", b.name, err)
		}
		out = append(out, SVGFigure{Name: b.name, SVG: svg})
	}
	return out, nil
}

// svgFig1 draws E_d vs W for the three devices on log-log axes.
func svgFig1(opt Options) (*plot.Plot, error) {
	sizes := []int{256, 512, 1024, 2048, 4096, 8192, 16384, 32768}
	if opt.Quick {
		sizes = []int{512, 2048, 8192, 32768}
	}
	p := plot.New("Fig 1: dynamic energy vs work, 2D FFT", "work W = 5N²log₂N", "dynamic energy (J)")
	p.LogX, p.LogY = true, true
	cpu := cpusim.NewHaswell()
	k40c, p100 := gpusim.NewK40c(), gpusim.NewP100()

	addSeries := func(name string, get func(n int) (float64, float64, error)) error {
		var xs, ys []float64
		for _, n := range sizes {
			w, e, err := get(n)
			if err != nil {
				return err
			}
			if e <= 0 {
				continue // log axis cannot show zero-energy points
			}
			xs = append(xs, w)
			ys = append(ys, e)
		}
		return p.Add(plot.Series{Name: name, X: xs, Y: ys, Line: true, Marker: plot.MarkerCircle})
	}
	if err := addSeries("Haswell CPU", func(n int) (float64, float64, error) {
		r, err := cpu.RunFFT2D(n, 24)
		if err != nil {
			return 0, 0, err
		}
		return r.Work, r.DynEnergyJ, nil
	}); err != nil {
		return nil, err
	}
	if err := addSeries("K40c", func(n int) (float64, float64, error) {
		r, err := k40c.RunFFT2D(n)
		if err != nil {
			return 0, 0, err
		}
		return r.Work, r.DynEnergyJ, nil
	}); err != nil {
		return nil, err
	}
	if err := addSeries("P100", func(n int) (float64, float64, error) {
		r, err := p100.RunFFT2D(n)
		if err != nil {
			return 0, 0, err
		}
		return r.Work, r.DynEnergyJ, nil
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// scatterWithFront draws all configurations as a cloud and the Pareto
// front as connected squares (the paper's plotting convention).
func scatterWithFront(title string, pts []pareto.Point, front []pareto.Point) (*plot.Plot, error) {
	p := plot.New(title, "execution time (s)", "dynamic energy (J)")
	var xs, ys []float64
	for _, pt := range pts {
		xs = append(xs, pt.Time)
		ys = append(ys, pt.Energy)
	}
	if err := p.Add(plot.Series{Name: "configurations", X: xs, Y: ys, Marker: plot.MarkerCircle}); err != nil {
		return nil, err
	}
	var fx, fy []float64
	for _, pt := range front {
		fx = append(fx, pt.Time)
		fy = append(fy, pt.Energy)
	}
	if err := p.Add(plot.Series{Name: "Pareto front", X: fx, Y: fy, Marker: plot.MarkerSquare, Line: true}); err != nil {
		return nil, err
	}
	return p, nil
}

func svgFig2(opt Options) (*plot.Plot, error) {
	n := 18432
	if opt.Quick {
		n = 9216
	}
	_, pts, err := gpuSweepPoints(opt, gpusim.NewP100(), n)
	if err != nil {
		return nil, err
	}
	return scatterWithFront(fmt.Sprintf("Fig 2: P100, N=%d", n), pts, pareto.Front(pts))
}

func svgFig4(opt Options) (*plot.Plot, error) {
	n := 17408
	if opt.Quick {
		n = 4352
	}
	m := cpusim.NewHaswell()
	p := plot.New(fmt.Sprintf("Fig 4: dynamic power vs average CPU utilization, N=%d", n),
		"average CPU utilization (%)", "dynamic power (W)")
	for _, v := range []dense.Variant{dense.VariantPacked, dense.VariantTiled} {
		var xs, ys []float64
		for _, cfg := range m.EnumerateConfigs() {
			r, err := m.RunGEMM(cpusim.GEMMApp{N: n, Config: cfg, Variant: v}, nil)
			if err != nil {
				return nil, err
			}
			xs = append(xs, 100*r.AvgUtil)
			ys = append(ys, r.DynPowerW)
		}
		if err := p.Add(plot.Series{Name: v.String(), X: xs, Y: ys, Marker: plot.MarkerCircle}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func svgFig6(opt Options) (*plot.Plot, error) {
	dev := gpusim.NewP100()
	sizes := []int{5120, 10240, 15360}
	p := plot.New("Fig 6: energy vs G, measured and additive (P100, BS=16)",
		"group size G", "dynamic energy (J)")
	for _, n := range sizes {
		base, err := dev.RunMatMul(gpusim.MatMulWorkload{N: n, Products: 1},
			gpusim.MatMulConfig{BS: 16, G: 1, R: 1})
		if err != nil {
			return nil, err
		}
		var gs, measured, additive []float64
		for _, g := range []int{1, 2, 3, 4} {
			r, err := dev.RunMatMul(gpusim.MatMulWorkload{N: n, Products: g},
				gpusim.MatMulConfig{BS: 16, G: g, R: 1})
			if err != nil {
				return nil, err
			}
			gs = append(gs, float64(g))
			measured = append(measured, r.DynEnergyJ)
			additive = append(additive, float64(g)*base.DynEnergyJ)
		}
		if err := p.Add(plot.Series{Name: fmt.Sprintf("N=%d measured", n),
			X: gs, Y: measured, Line: true, Marker: plot.MarkerCircle}); err != nil {
			return nil, err
		}
		if err := p.Add(plot.Series{Name: fmt.Sprintf("N=%d additive", n),
			X: gs, Y: additive, Line: true, Marker: plot.MarkerNone}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func svgFig7(opt Options) (*plot.Plot, error) {
	results, pts, err := gpuSweepPoints(opt, gpusim.NewK40c(), 10240)
	if err != nil {
		return nil, err
	}
	region := filterBS(results, pts, 21, 31)
	return scatterWithFront("Fig 7: K40c, N=10240 (local front of BS 21..31)",
		pts, pareto.Front(region))
}

func svgFig8(opt Options) (*plot.Plot, error) {
	_, pts, err := gpuSweepPoints(opt, gpusim.NewP100(), 10240)
	if err != nil {
		return nil, err
	}
	return scatterWithFront("Fig 8: P100, N=10240 (global front)", pts, pareto.Front(pts))
}
