package experiment

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/parindex"
)

func init() {
	Register(Experiment{
		ID:    "scheduler",
		Title: "Downstream scenario: energy-aware configuration choice under deadlines",
		Paper: "The practical payoff of the weak-EP finding: in a dynamic environment with time constraints, choosing configurations bi-objectively saves energy at zero deadline cost (P100) and is a no-op where the front is a single point (K40c)",
		Run:   runScheduler,
	})
}

// The scheduler scenario: a deterministic stream of jobs (matrix sizes
// with deadlines) arrives at a device, and a policy picks each job's
// configuration. Performance-only runs the fastest configuration — what
// a user who believes weak EP holds does; energy-aware runs the cheapest
// one that meets the deadline (the ε-constraint method per job). Both are
// constraint queries against the job size's Pareto front in a
// parindex.Index — the index GET /optimize serves — filled by one
// model-true sweep per size through the device registry.

// schedJob is one unit of arriving work.
type schedJob struct {
	n         int
	deadlineS float64
}

// schedReport totals a job stream executed under one policy.
type schedReport struct {
	policy         string
	timeS, energyJ float64
	deadlineMisses int
}

// schedFronts sweeps every size once on the device's model-true
// (analytic) variant, workers wide, and indexes the Pareto front of
// each.
func schedFronts(name string, sizes []int, products, workers int) (device.Device, *parindex.Index, error) {
	dev, err := device.Open(name)
	if err != nil {
		return nil, nil, err
	}
	if a, ok := dev.(device.AnalyticProvider); ok {
		dev = a.Analytic()
	}
	idx := parindex.NewIndex()
	for _, n := range sizes {
		w := device.Workload{N: n, Products: products}
		configs, err := dev.Configs(w)
		if err != nil {
			return nil, nil, err
		}
		sink := campaign.NewIndexSink(idx, name, w)
		if err := campaign.Stream(context.Background(), dev, w, configs, campaign.Spec{ModelTrue: true, Workers: workers}, sink); err != nil {
			return nil, nil, err
		}
	}
	return dev, idx, nil
}

func schedKey(name string, n, products int) parindex.Key {
	return parindex.Key{Device: name, App: device.AppDense, N: n, Products: products}
}

// schedStream draws count jobs: sizes uniformly from the swept set,
// deadlines a uniform multiple (1 to slackMax) of the size's fastest
// time.
func schedStream(idx *parindex.Index, name string, sizes []int, products, count int, slackMax float64, seed int64) ([]schedJob, error) {
	if len(sizes) == 0 || count < 1 || slackMax < 1 {
		return nil, errors.New("experiment: scheduler needs sizes, a positive count, and slack >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]schedJob, count)
	for i := range jobs {
		n := sizes[rng.Intn(len(sizes))]
		front := idx.Entries(schedKey(name, n, products))
		if len(front) == 0 {
			return nil, fmt.Errorf("experiment: size %d was not swept", n)
		}
		slack := 1 + rng.Float64()*(slackMax-1)
		jobs[i] = schedJob{n: n, deadlineS: front[0].Time * slack}
	}
	return jobs, nil
}

// runSchedPolicy executes the stream: each job runs the front entry its
// policy picks, and an infeasible deadline falls back to the fastest.
func runSchedPolicy(idx *parindex.Index, name string, products int, jobs []schedJob, energyAware bool) (schedReport, error) {
	rep := schedReport{policy: "performance-only"}
	if energyAware {
		rep.policy = "energy-aware"
	}
	fastest := parindex.Query{MaxEnergy: math.Inf(1)}
	for _, job := range jobs {
		k := schedKey(name, job.n, products)
		e, _, ok := idx.Best(k, fastest)
		if !ok {
			return rep, fmt.Errorf("experiment: size %d was not swept", job.n)
		}
		if energyAware {
			if cheap, _, feasible := idx.Best(k, parindex.Query{MaxTime: job.deadlineS}); feasible {
				e = cheap
			}
		}
		rep.timeS += e.Time
		rep.energyJ += e.Energy
		if e.Time > job.deadlineS*(1+1e-9) {
			rep.deadlineMisses++
		}
	}
	return rep, nil
}

func runScheduler(opt Options) ([]*Table, error) {
	sizes := []int{8192, 10240}
	count := 20
	if opt.Quick {
		sizes = []int{4096}
		count = 8
	}
	const products = 8
	t := &Table{
		Title: "Job-stream outcomes per policy (deadline slack up to 15%)",
		Columns: []string{"device", "policy", "jobs", "deadline_misses",
			"total_time_s", "total_energy_j", "saving_vs_perf_pct"},
	}
	for _, name := range []string{"p100", "k40c"} {
		dev, idx, err := schedFronts(name, sizes, products, opt.Workers)
		if err != nil {
			return nil, err
		}
		jobs, err := schedStream(idx, name, sizes, products, count, 1.15, opt.Seed)
		if err != nil {
			return nil, err
		}
		var reps [2]schedReport
		for i, energyAware := range []bool{false, true} {
			if reps[i], err = runSchedPolicy(idx, name, products, jobs, energyAware); err != nil {
				return nil, err
			}
		}
		for _, rep := range reps {
			saving := 100 * (1 - rep.energyJ/reps[0].energyJ)
			t.AddRow(dev.Spec().CatalogName, rep.policy, f(float64(len(jobs)), 0),
				f(float64(rep.deadlineMisses), 0), f(rep.timeS, 2),
				f(rep.energyJ, 0), f(saving, 1))
		}
	}
	t.AddNote("the energy-aware policy exploits the P100's trade-off region; on the K40c (single-point front) it rightly changes nothing")
	return []*Table{t}, nil
}
