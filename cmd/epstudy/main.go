// Command epstudy regenerates the paper's tables and figures from the
// simulated platforms.
//
// Usage:
//
//	epstudy -list
//	epstudy -run fig7
//	epstudy -run all -quick
//	epstudy -run fig8 -csv
//	epstudy -svgdir figs/
//	epstudy -run all -markdown report.md
//	epstudy -html report.html
//	epstudy -device haswell -n 96
//	epstudy -device p100 -reps 3
//
// With -device, epstudy runs a measured campaign on any registered
// backend (k40c, p100, haswell, legacy-xeon, hetero) through the same
// campaign engine the built-in experiments use, and renders the per-
// configuration measurements as a table (or CSV with -csv). -reps
// repeats the campaign; repeats are answered from the in-process
// measurement cache (byte-identical by determinism), and the table
// notes the cache counters.
//
// -faults runs the campaign against a deterministic fault injector and
// -retries grants each point extra attempts; points that exhaust the
// budget are listed as table notes, surviving points carry an attempts
// column, and the table covers the survivors:
//
//	epstudy -device haswell -n 96 -faults seed=3,transient=0.3 -retries 2
//
// -executor fleet shards the -device campaign across simulated worker
// nodes (internal/fleet) — sized with -nodes and -shardsize, optionally
// chaos-ridden via -nodefaults — and appends the control-plane activity
// (preemptions, cordons, remediations, event digest) as table notes.
// The measured rows are byte-identical to a local run; that is the
// fleet's headline invariant:
//
//	epstudy -device p100 -executor fleet -nodes 4 -nodefaults seed=9,preempt=0.3,flaky=0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"energyprop/internal/campaign"
	"energyprop/internal/cli"
	"energyprop/internal/device"
	"energyprop/internal/experiment"
	"energyprop/internal/fleet"
	"energyprop/internal/policy"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("epstudy", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runID := fs.String("run", "", "experiment id to run, or 'all'")
	list := fs.Bool("list", false, "list registered experiments")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast run")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	seed := fs.Int64("seed", 1, "seed for the measurement noise")
	workers := fs.Int("workers", 0, "parallel campaign workers (0 = one per CPU); any value yields identical results")
	svgDir := fs.String("svgdir", "", "also render the paper's figures as SVGs into this directory")
	markdown := fs.String("markdown", "", "write a full markdown report to this file ('-' for stdout)")
	html := fs.String("html", "", "write a self-contained HTML report (tables + inline figures) to this file")
	devName := fs.String("device", "", "run a measured campaign on this registered device instead of a named experiment")
	mode := fs.String("mode", "campaign", `what the -device run measures: "campaign" (plain sweep) or "policy" (race-to-idle vs DVFS-paced energy study)`)
	slack := fs.Float64("slack", 0, "deadline window as a multiple of the busy interval for -mode policy (0 = 1.5)")
	floor := fs.Float64("floor", 0, "deep-idle floor as a fraction of active idle power for -mode policy (0 = 0.3)")
	policies := fs.String("policies", "", "comma-separated strategies for -mode policy: race, paced (empty = both)")
	app := fs.String("app", "dgemm", "application family for -device campaigns: dgemm, fft, spmv, stencil, or compound")
	n := fs.Int("n", 4096, "matrix/signal dimension N for -device campaigns")
	products := fs.Int("products", 2, "total problem instances for -device campaigns")
	cf := cli.NewCampaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	plan, err := cf.Plan()
	if err != nil {
		cli.Errorf(stderr, "epstudy: %v\n", err)
		return 2
	}
	out := cli.NewWriter(stdout)
	// done folds a stdout write failure into the exit code: a truncated
	// report must not look like a successful run.
	done := func() int {
		if err := out.Err(); err != nil {
			cli.Errorf(stderr, "epstudy: writing output: %v\n", err)
			return 1
		}
		return 0
	}
	opt := experiment.Options{Seed: *seed, Quick: *quick, Workers: *workers}
	var ids []string
	if *runID != "" && *runID != "all" {
		ids = []string{*runID}
	}

	if *mode != "campaign" && *mode != "policy" {
		cli.Errorf(stderr, "epstudy: -mode %q: want \"campaign\" or \"policy\"\n", *mode)
		return 2
	}
	if *mode != "policy" && (*slack != 0 || *floor != 0 || *policies != "") {
		cli.Errorf(stderr, "epstudy: -slack, -floor, and -policies require -mode policy\n")
		return 2
	}
	if *mode == "policy" && *devName == "" {
		cli.Errorf(stderr, "epstudy: -mode policy requires -device\n")
		return 2
	}

	if *devName != "" {
		plan.Device = *devName
		if *mode == "policy" {
			strategies, perr := parsePolicies(*policies)
			if perr != nil {
				cli.Errorf(stderr, "epstudy: %v\n", perr)
				return 2
			}
			popts := policy.Options{Strategies: strategies, Slack: *slack, FloorFrac: *floor}.Normalized()
			plan.Policy = &popts
		}
		w := device.Workload{App: *app, N: *n, Products: *products}.Normalized()
		tables, err := runDeviceStudy(plan, w, cf, opt)
		if err != nil {
			cli.Errorf(stderr, "epstudy: %v\n", err)
			return 1
		}
		for _, t := range tables {
			if *csv {
				out.Printf("# %s\n%s\n", t.Title, t.CSV())
			} else {
				out.Println(t.Render())
			}
		}
		return done()
	}

	if *html != "" {
		page, err := experiment.RenderHTML(ids, opt)
		if err != nil {
			cli.Errorf(stderr, "epstudy: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*html, []byte(page), 0o644); err != nil {
			cli.Errorf(stderr, "epstudy: %v\n", err)
			return 1
		}
		out.Printf("wrote %s\n", *html)
		return done()
	}

	if *markdown != "" {
		report, err := experiment.RenderReport(ids, opt)
		if err != nil {
			cli.Errorf(stderr, "epstudy: %v\n", err)
			return 1
		}
		if *markdown == "-" {
			out.Printf("%s", report)
		} else if err := os.WriteFile(*markdown, []byte(report), 0o644); err != nil {
			cli.Errorf(stderr, "epstudy: %v\n", err)
			return 1
		}
		return done()
	}

	if *svgDir != "" {
		if err := writeSVGs(out, *svgDir, opt); err != nil {
			cli.Errorf(stderr, "epstudy: %v\n", err)
			return 1
		}
		if *runID == "" && !*list {
			return done()
		}
	}

	if *list || *runID == "" {
		out.Println("available experiments:")
		for _, id := range experiment.IDs() {
			e, err := experiment.Get(id)
			if err != nil {
				continue
			}
			out.Printf("  %-12s %s\n", id, e.Title)
			out.Printf("  %-12s paper: %s\n", "", e.Paper)
		}
		if *runID == "" && !*list {
			out.Println("\nrun one with: epstudy -run <id>")
		}
		return done()
	}

	var tables []*experiment.Table
	if *runID == "all" {
		tables, err = experiment.RunAll(opt)
	} else {
		var e experiment.Experiment
		e, err = experiment.Get(*runID)
		if err == nil {
			out.Printf("# %s\n# paper: %s\n\n", e.Title, e.Paper)
			tables, err = e.Run(opt)
		}
	}
	if err != nil {
		cli.Errorf(stderr, "epstudy: %v\n", err)
		return 1
	}
	for _, t := range tables {
		if *csv {
			out.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			out.Println(t.Render())
		}
	}
	return done()
}

// runDeviceStudy measures every configuration of a registered device
// through the same streaming campaign engine the built-in experiments
// and the measurement service use, and tabulates the results. -reps > 1
// reruns the campaign against the attached point cache: warm reruns are
// byte-identical (the points are pure functions of device, workload,
// config, and seed) and skip every device run and meter loop.
//
// A fault plan or retry budget turns on graceful degradation: surviving
// points gain an attempts column, exhausted points become table notes,
// and the measured values of every survivor stay byte-identical to the
// fault-free campaign.
//
// Under a policy this is the race-to-idle vs DVFS-paced energy study:
// the campaign runs over the cross product of the enabled strategies
// with the device's configuration space, and the per-point table gains
// the per-configuration race-vs-paced comparison and the Pareto front
// over policy × configuration. Cache, retries, fault injection, and the
// fleet executor compose exactly as in the plain campaign, because a
// policy point is just another configuration.
func runDeviceStudy(plan fleet.Plan, w device.Workload, cf *cli.CampaignFlags, opt experiment.Options) ([]*experiment.Table, error) {
	st, err := plan.Open()
	if err != nil {
		return nil, err
	}
	configs, err := st.Ref.Configs(w)
	if err != nil {
		return nil, err
	}
	chaos := plan.Faults.Enabled() || cf.Retries > 0
	spec := campaign.DefaultSpec(opt.Seed)
	spec.Workers = opt.Workers
	spec.Cache = campaign.NewPointCache(0)
	spec.Executor = st.Executor
	if chaos {
		spec.Retry = cf.Retry()
		spec.ContinueOnError = true
	}
	// Warm reps stream into Discard: they exist to exercise the point
	// cache, not to tabulate twice.
	for r := 0; r < cf.Reps-1; r++ {
		if err := campaign.Stream(context.Background(), st.Dev, w, configs, spec, campaign.Discard); err != nil {
			return nil, err
		}
	}
	ref := st.Ref.Spec()
	pol := plan.Policy
	t := &experiment.Table{
		Title:   fmt.Sprintf("Measured campaign on %s (%s), %s", ref.CatalogName, st.Ref.Kind(), w),
		Columns: []string{"config", "key", "seconds", "measured_j", "ci_halfwidth_j", "runs"},
	}
	if pol != nil {
		t.Title = fmt.Sprintf("Energy-policy campaign on %s (%s), %s, slack %.3g, floor %.3g",
			ref.CatalogName, st.Ref.Kind(), w, pol.Slack, pol.FloorFrac)
		t.Columns = append([]string{"policy"}, t.Columns...)
	}
	// The attempts column only appears in chaos mode so fault-free table
	// output stays byte-identical to earlier versions.
	if chaos {
		t.Columns = append(t.Columns, "attempts")
	}
	// The final rep streams straight into the table: rows land in
	// configuration order as points commit, failures are buffered because
	// notes trail the rows.
	var reports []campaign.PointReport
	var failed []campaign.PointFailure
	totalRuns := 0
	sink := campaign.FuncSink{AcceptFunc: func(o campaign.PointOutcome) error {
		if o.Failure != nil {
			failed = append(failed, *o.Failure)
			return nil
		}
		p := o.Report
		row := []string{o.Label}
		if pol != nil {
			pt, ok := p.Config.(policy.Point)
			if !ok {
				return fmt.Errorf("policy campaign produced non-policy config %v", p.Config)
			}
			row = []string{pt.Strategy, pt.Inner.String()}
		}
		reports = append(reports, p)
		totalRuns += p.Runs
		row = append(row, o.Key,
			fmt.Sprintf("%.4f", p.TrueSeconds),
			fmt.Sprintf("%.1f", p.MeasuredEnergyJ),
			fmt.Sprintf("%.2f", p.HalfWidthJ),
			fmt.Sprintf("%d", p.Runs))
		if chaos {
			row = append(row, fmt.Sprintf("%d", p.Attempts))
		}
		t.AddRow(row...)
		return nil
	}}
	if err := campaign.Stream(context.Background(), st.Dev, w, configs, spec, sink); err != nil {
		return nil, err
	}
	if chaos && len(reports) == 0 {
		return nil, fmt.Errorf("all %d points failed within the retry budget", len(failed))
	}
	t.AddNote("campaign cost: %d total runs across %d configurations (seed %d)",
		totalRuns, len(reports), opt.Seed)
	if pol != nil {
		t.AddNote("window: deadline = %.3g x busy, deep-idle floor = %.3g x active idle (%.1f W)",
			pol.Slack, pol.FloorFrac, ref.IdlePowerW)
	}
	if cf.Reps > 1 {
		s := spec.Cache.Stats()
		t.AddNote("cache over %d reps: hits=%d misses=%d dedups=%d evictions=%d",
			cf.Reps, s.Hits, s.Misses, s.Dedups, s.Evictions)
	}
	for _, f := range failed {
		t.AddNote("failed: %s attempts=%d err=%v", f.Config.Key(), f.Attempts, f.Err)
	}
	if s, n := st.Injectors.Stats(); n > 0 && st.Coord == nil {
		t.AddNote("faults: runs=%d transients=%d drops=%d outliers=%d delays=%d",
			s.Runs, s.Transients, s.Drops, s.Outliers, s.Delays)
	}
	if coord := st.Coord; coord != nil {
		s := coord.Stats()
		t.AddNote("fleet: nodes=%d shards=%d dispatches=%d preemptions=%d cordons=%d remediations=%d",
			coord.Options().Nodes, s.Shards, s.Dispatches, s.Preemptions, s.Cordons, s.Remediations)
		t.AddNote("fleet events: %d entries, digest %s", len(coord.Events()), fleet.DigestEvents(coord.Events()))
	}
	tables := []*experiment.Table{t}
	if pol == nil {
		return tables, nil
	}
	if cmp := comparePolicies(reports, w); cmp != nil {
		tables = append(tables, cmp)
	}
	return append(tables, policyFront(reports, w)), nil
}

// writeSVGs renders the figure images into dir.
func writeSVGs(out *cli.Writer, dir string, opt experiment.Options) error {
	figs, err := experiment.SVGFigures(opt)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range figs {
		path := filepath.Join(dir, f.Name)
		if err := os.WriteFile(path, []byte(f.SVG), 0o644); err != nil {
			return err
		}
		out.Printf("wrote %s\n", path)
	}
	return nil
}
