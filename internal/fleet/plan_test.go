package fleet

import (
	"reflect"
	"testing"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/policy"
)

// TestPlanPolicyFaultRecordIndependentOfWorkers is the regression test
// for the stack order. Under a fault injector wrapped inside the policy
// wrapper, the race and paced points of one inner configuration share
// one attempt counter, so which of them drew attempt 1 depended on
// scheduling and a wide pool printed a different record on most runs.
// With the injector outermost every point owns its schedule: a serial
// run and six 64-worker runs give one record, locally and on a fleet.
func TestPlanPolicyFaultRecordIndependentOfWorkers(t *testing.T) {
	w := device.Workload{App: device.AppStencil, N: 8192, Products: 20}.Normalized()
	pol := policy.Options{}.Normalized()
	for _, fl := range []*Options{nil, {Nodes: 3}} {
		name := "local"
		if fl != nil {
			name = "fleet"
		}
		t.Run(name, func(t *testing.T) {
			distinct := map[string]bool{}
			for run, workers := range []int{1, 64, 64, 64, 64, 64, 64} {
				plan := Plan{Device: "haswell", Policy: &pol, Faults: fault.Plan{Seed: 3, Transient: 0.4}}
				plan.Fleet = fl
				st, err := plan.Open()
				if err != nil {
					t.Fatal(err)
				}
				spec := campaign.DefaultSpec(1)
				spec.Workers = workers
				spec.Executor = st.Executor
				spec.Retry = fault.RetryPolicy{MaxAttempts: 2}
				spec.ContinueOnError = true
				rec := runRecordStruct(t, st.Dev, w, spec)
				if len(rec.Failed) == 0 || len(rec.Results) == 0 {
					t.Fatalf("run %d: %d survivors, %d failed — the schedule must both fail and retry points",
						run, len(rec.Results), len(rec.Failed))
				}
				distinct[string(marshalRecord(t, rec))] = true
			}
			if len(distinct) != 1 {
				t.Errorf("%d distinct records over 7 runs, want 1", len(distinct))
			}
		})
	}
}

// TestPlanStackOrder pins the one wrapping order: registry device →
// analytic → policy → fault injector, with the injector absent from the
// reference device and, under a fleet, from the streamed device too.
func TestPlanStackOrder(t *testing.T) {
	pol := policy.Options{Strategies: []string{policy.RaceToIdle}}
	faults := fault.Plan{Seed: 1, Transient: 0.5}
	st, err := Plan{Device: "p100", Analytic: true, Policy: &pol, Faults: faults}.Open()
	if err != nil {
		t.Fatal(err)
	}
	inj, ok := st.Dev.(*fault.Device)
	if !ok {
		t.Fatalf("local stack streams %T, want the fault injector outermost", st.Dev)
	}
	if st.Executor != nil || st.Coord != nil {
		t.Error("local plan opened a fleet")
	}
	ref, ok := st.Ref.(*policy.Device)
	if !ok {
		t.Fatalf("reference device is %T, want the policy wrapper", st.Ref)
	}
	reg, err := device.Open("p100")
	if err != nil {
		t.Fatal(err)
	}
	want, err := policy.Wrap(reg.(device.AnalyticProvider).Analytic(), pol)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, want) {
		t.Errorf("reference device is %+v, want the registry device's analytic variant under the plan's policy", ref)
	}
	if _, n := st.Injectors.Stats(); n != 1 {
		t.Errorf("local stack collected %d injectors, want 1", n)
	}
	if inj.Name() != "p100" {
		t.Errorf("injector identity %q, want p100", inj.Name())
	}

	plain, err := Plan{Device: "p100"}.Open()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Dev != plain.Ref {
		t.Error("a fault-free plan wrapped the streamed device")
	}
}

// TestPlanOpenRejects covers every way a Plan fails to open.
func TestPlanOpenRejects(t *testing.T) {
	for name, plan := range map[string]Plan{
		"unknown device": {Device: "gtx480"},
		"unknown fleet":  {Device: "gtx480", Fleet: &Options{Nodes: 2}},
		"bad faults":     {Device: "p100", Faults: fault.Plan{Transient: 1.5}},
		"bad policy":     {Device: "p100", Policy: &policy.Options{Slack: 0.5}},
		"bad fleet":      {Device: "p100", Fleet: &Options{Nodes: -1}},
	} {
		if _, err := plan.Open(); err == nil {
			t.Errorf("%s: Open accepted %+v", name, plan)
		}
	}
}
