package experiment

import "testing"

var schedTestSizes = []int{4096, 8192}

// schedPolicies runs a 12-job stream with 15% deadline slack on the
// named device under both policies: [0] performance-only, [1]
// energy-aware.
func schedPolicies(t *testing.T, name string) [2]schedReport {
	t.Helper()
	_, idx, err := schedFronts(name, schedTestSizes, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := schedStream(idx, name, schedTestSizes, 4, 12, 1.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	var reps [2]schedReport
	for i, energyAware := range []bool{false, true} {
		if reps[i], err = runSchedPolicy(idx, name, 4, jobs, energyAware); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// TestEnergyPolicySavesOnP100 is the scenario's payoff: the energy-aware
// policy saves over 10% on the weak-EP-violating P100.
func TestEnergyPolicySavesOnP100(t *testing.T) {
	reps := schedPolicies(t, "p100")
	if saving := 1 - reps[1].energyJ/reps[0].energyJ; saving < 0.10 {
		t.Errorf("p100: energy-aware saving %.1f%%, want >= 10%%", 100*saving)
	}
}

// TestEnergyPolicyNearNoopOnK40c: the K40c's front is a single point, so
// the energy-aware policy changes nothing.
func TestEnergyPolicyNearNoopOnK40c(t *testing.T) {
	reps := schedPolicies(t, "k40c")
	if saving := 1 - reps[1].energyJ/reps[0].energyJ; saving < -0.01 || saving > 0.01 {
		t.Errorf("k40c: energy-aware saving %.1f%%, want within ±1%%", 100*saving)
	}
}

// TestPoliciesMeetDeadlines: neither policy misses a feasible deadline.
func TestPoliciesMeetDeadlines(t *testing.T) {
	for _, name := range []string{"p100", "k40c"} {
		for _, rep := range schedPolicies(t, name) {
			if rep.deadlineMisses != 0 {
				t.Errorf("%s %s: %d deadline misses, want 0", name, rep.policy, rep.deadlineMisses)
			}
		}
	}
}

// TestStreamDeterministic: the job stream is a pure function of the
// seed, and deadlines are never below the fastest time.
func TestStreamDeterministic(t *testing.T) {
	_, idx, err := schedFronts("p100", schedTestSizes, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := schedStream(idx, "p100", schedTestSizes, 4, 10, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedStream(idx, "p100", schedTestSizes, 4, 10, 1.2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must produce the same stream")
		}
		if fastest := idx.Entries(schedKey("p100", a[i].n, 4))[0].Time; a[i].deadlineS < fastest {
			t.Errorf("job %d: deadline %g below the fastest time %g", i, a[i].deadlineS, fastest)
		}
	}
}

// TestStreamValidation: bad stream arguments are refused.
func TestStreamValidation(t *testing.T) {
	_, idx, err := schedFronts("p100", schedTestSizes, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		sizes    []int
		count    int
		slackMax float64
	}{{nil, 5, 1.2}, {schedTestSizes, 0, 1.2}, {schedTestSizes, 5, 0.5}, {[]int{2048}, 5, 1.2}} {
		if _, err := schedStream(idx, "p100", bad.sizes, 4, bad.count, bad.slackMax, 1); err == nil {
			t.Errorf("schedStream(%v, count=%d, slack=%g): want error", bad.sizes, bad.count, bad.slackMax)
		}
	}
}

// TestInfeasibleDeadlineFallsBackToFastest: an impossible deadline is
// reported missed after falling back to the fastest configuration.
func TestInfeasibleDeadlineFallsBackToFastest(t *testing.T) {
	_, idx, err := schedFronts("p100", schedTestSizes, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	impossible := []schedJob{{n: 4096, deadlineS: 1e-9}}
	perf, err := runSchedPolicy(idx, "p100", 4, impossible, false)
	if err != nil {
		t.Fatal(err)
	}
	energy, err := runSchedPolicy(idx, "p100", 4, impossible, true)
	if err != nil {
		t.Fatal(err)
	}
	if energy.deadlineMisses != 1 || energy.timeS != perf.timeS || energy.energyJ != perf.energyJ {
		t.Errorf("impossible deadline: got %+v, want a missed run of the fastest %+v", energy, perf)
	}
}
