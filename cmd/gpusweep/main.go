// Command gpusweep runs a workload's full configuration space on any
// registered device — GPU (BS, G, R), CPU (threadgroup decompositions),
// or the heterogeneous ensemble (unit distributions) — using the
// model-true simulators, and emits one CSV row per configuration,
// optionally followed by the Pareto-front and trade-off analysis
// (Figs 2, 7, 8) and a persisted JSON record.
//
// Usage:
//
//	gpusweep -device p100 -n 10240 -products 8 -fronts
//	gpusweep -device haswell -n 4096 -fronts
//	gpusweep -device hetero -n 1024 -products 8
//	gpusweep -device k40c -n 8704 -json sweep.json
//	gpusweep -device p100 -reps 3 -cachestats
//	gpusweep -list
//
// The sweep is a model-true campaign (campaign.Spec.ModelTrue): one
// device run per configuration, no meter. With -reps it is repeated;
// repeats are answered from the campaign point cache (the runs are
// deterministic, so a warm rerun is byte-identical and nearly free),
// and -cachestats appends the cache counters as CSV comments.
//
// With -faults the sweep runs against a deterministic fault injector
// (see internal/fault) and -retries grants each configuration extra
// attempts; configurations that exhaust the budget are reported as
// "# failed:" comment rows, the CSV and fronts cover the survivors,
// and the exit code is 1 only when nothing survived:
//
//	gpusweep -device p100 -faults seed=7,transient=0.3 -retries 3
//
// With -executor fleet the sweep is sharded across simulated worker
// nodes (internal/fleet), each hosting its own device instance, with
// health checks, cordoning, and remediation; -nodes and -shardsize size
// the fleet and -nodefaults injects a deterministic node-failure
// schedule. The CSV data rows are byte-identical to a local sweep; the
// control-plane activity is appended as a "# fleet:" comment:
//
//	gpusweep -device p100 -executor fleet -nodes 4 -nodefaults seed=9,preempt=0.3,flaky=0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"energyprop/internal/campaign"
	"energyprop/internal/cli"
	"energyprop/internal/device"
	"energyprop/internal/fleet"
	"energyprop/internal/pareto"
)

func main() {
	// Ctrl-C cancels the sweep's worker pool instead of killing the
	// process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gpusweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	devName := fs.String("device", "p100", "registered device to sweep (see -list)")
	app := fs.String("app", "dgemm", "application family: dgemm, fft, spmv, stencil, or compound")
	n := fs.Int("n", 10240, "matrix/signal dimension N")
	products := fs.Int("products", 8, "total problem instances (G·R on a GPU)")
	fronts := fs.Bool("fronts", false, "print Pareto fronts and trade-offs after the CSV")
	jsonOut := fs.String("json", "", "also persist the sweep as JSON to this file")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = one per CPU)")
	cachestats := fs.Bool("cachestats", false, "append point-cache counters as CSV comments")
	cf := cli.NewCampaignFlags(fs)
	list := fs.Bool("list", false, "list the registered devices and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	plan, err := cf.Plan()
	if err != nil {
		cli.Errorf(stderr, "gpusweep: %v\n", err)
		return 2
	}

	out := cli.NewWriter(stdout)
	// done folds a stdout write failure into the exit code: a truncated
	// CSV must not look like a complete sweep to downstream tooling.
	done := func() int {
		if err := out.Err(); err != nil {
			cli.Errorf(stderr, "gpusweep: writing output: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		for _, name := range device.List() {
			d, err := device.Open(name)
			if err != nil {
				cli.Errorf(stderr, "gpusweep: %v\n", err)
				return 1
			}
			out.Printf("%-12s %-7s %s\n", name, d.Kind(), d.Spec().CatalogName)
		}
		return done()
	}

	// Model-true sweeps want the constant analytic profile where the
	// backend distinguishes it from the traced one. The fault injector
	// keeps the inner device's identity, so the point cache stays keyed
	// by the real device and errors are never cached — a retried run
	// re-executes and, when it succeeds, is byte-identical to the
	// fault-free sweep.
	plan.Device, plan.Analytic = *devName, true
	st, err := plan.Open()
	if err != nil {
		cli.Errorf(stderr, "gpusweep: %v\n", err)
		return 2
	}
	coord := st.Coord

	workload := device.Workload{App: *app, N: *n, Products: *products}.Normalized()
	configs, err := st.Dev.Configs(workload)
	if err != nil {
		cli.Errorf(stderr, "gpusweep: %v\n", err)
		return 1
	}
	// Every run goes through the point cache, so -reps reruns (and any
	// duplicate configurations) collapse to one simulator invocation per
	// distinct point; the runs are deterministic, so a cached point is
	// identical to a fresh one. Warm reps discard their outcomes; only
	// the final rep emits.
	spec := campaign.Spec{
		ModelTrue:       true,
		Seed:            plan.Faults.Seed,
		Workers:         *workers,
		Retry:           cf.Retry(),
		ContinueOnError: true,
		Cache:           campaign.NewPointCache(0),
		Executor:        st.Executor,
	}
	for r := 0; r < cf.Reps-1; r++ {
		if err := campaign.Stream(ctx, st.Dev, workload, configs, spec, campaign.Discard); err != nil {
			cli.Errorf(stderr, "gpusweep: %v\n", err)
			return 1
		}
	}

	// The optional JSON record streams too. An aborted sweep removes the
	// partial file: a truncated record must not pose as a campaign.
	var jsonFile *os.File
	var record campaign.Sink = campaign.Discard
	if *jsonOut != "" {
		jsonFile, err = os.Create(*jsonOut)
		if err == nil {
			record, err = campaign.NewRecordSink(jsonFile, st.Dev, workload, false)
		}
		if err != nil {
			cli.Errorf(stderr, "gpusweep: writing %s: %v\n", *jsonOut, err)
			return 1
		}
	}
	// Attempt counts are provenance, not measurement, and only enter the
	// record when the fault/retry machinery is active so fault-free
	// records stay byte-identical to earlier versions.
	withAttempts := plan.Faults.Enabled() || cf.Retries > 0

	out.Println("config,seconds,dyn_power_w,dyn_energy_j")
	// The sweep streams: outcomes are committed in configuration order
	// the moment their turn completes, so CSV rows, the JSON record, and
	// the Pareto front build incrementally. Failed configurations degrade
	// to comment rows so downstream CSV consumers still parse the
	// survivors; they are buffered here because comments trail the data
	// section.
	front := make([]pareto.Point, 0, len(configs))
	var failedRows []campaign.PointFailure
	emit := campaign.FuncSink{
		AcceptFunc: func(o campaign.PointOutcome) error {
			if f := o.Failure; f != nil {
				failedRows = append(failedRows, *f)
			} else {
				p := o.Report
				out.Printf("%s,%.4f,%.2f,%.1f\n",
					o.Key, p.TrueSeconds, p.TrueEnergyJ/p.TrueSeconds, p.TrueEnergyJ)
				front = append(front, pareto.Point{Label: o.Label, Time: p.TrueSeconds, Energy: p.TrueEnergyJ})
			}
			if !withAttempts {
				o.Report.Attempts = 0
				if f := o.Failure; f != nil {
					o.Failure = &campaign.PointFailure{Config: f.Config, Err: f.Err}
				}
			}
			return record.Accept(o)
		},
		FlushFunc: func() error {
			if jsonFile == nil {
				return nil
			}
			err := record.Flush()
			if cerr := jsonFile.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("writing %s: %w", *jsonOut, err)
			}
			return nil
		},
	}
	if err := campaign.Stream(ctx, st.Dev, workload, configs, spec, emit); err != nil {
		if jsonFile != nil {
			_ = jsonFile.Close()    //lint:ignore droppederr the campaign already failed; the partial file is removed next
			_ = os.Remove(*jsonOut) //lint:ignore droppederr best-effort cleanup of a partial record on the error exit
		}
		cli.Errorf(stderr, "gpusweep: %v\n", err)
		return 1
	}
	failed := len(failedRows)
	survivors := len(front)
	for _, f := range failedRows {
		out.Printf("# failed: %s attempts=%d err=%v\n", f.Config.Key(), f.Attempts, f.Err)
	}
	if s, n := st.Injectors.Stats(); n > 0 {
		out.Printf("# faults: runs=%d transients=%d drops=%d outliers=%d delays=%d survivors=%d failed=%d",
			s.Runs, s.Transients, s.Drops, s.Outliers, s.Delays, survivors, failed)
		if coord != nil {
			out.Printf(" (aggregated over %d node injectors)", n)
		}
		out.Println()
	}
	if coord != nil {
		s := coord.Stats()
		out.Printf("# fleet: nodes=%d shards=%d dispatches=%d preemptions=%d cordons=%d remediations=%d digest=%s\n",
			coord.Options().Nodes, s.Shards, s.Dispatches, s.Preemptions, s.Cordons, s.Remediations,
			fleet.DigestEvents(coord.Events()))
	}

	if *cachestats {
		s := spec.Cache.Stats()
		out.Printf("# cache: reps=%d hits=%d misses=%d dedups=%d evictions=%d size=%d\n",
			cf.Reps, s.Hits, s.Misses, s.Dedups, s.Evictions, s.Size)
	}

	if survivors == 0 {
		cli.Errorf(stderr, "gpusweep: all %d configurations failed\n", failed)
		return 1
	}

	if !*fronts {
		return done()
	}
	ranks := pareto.Ranks(front)
	for i, rank := range ranks {
		if i > 2 {
			out.Printf("# ... %d further ranks\n", len(ranks)-i)
			break
		}
		out.Printf("# rank %d (%d points):\n", i, len(rank))
		for _, p := range rank {
			out.Printf("#   %-22s t=%.4fs E=%.1fJ\n", p.Label, p.Time, p.Energy)
		}
		tos, err := pareto.TradeOffs(rank)
		if err != nil {
			continue
		}
		for _, to := range tos {
			out.Printf("#   tradeoff %-22s degradation=%.1f%% saving=%.1f%%\n",
				to.Point.Label, to.PerfDegradationPct, to.EnergySavingPct)
		}
	}
	return done()
}
