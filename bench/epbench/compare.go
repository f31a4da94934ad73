package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(dir string) (*benchSpec, error) {
	path := filepath.Join(dir, "..", "BENCHMARK.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func loadRun(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// compareFiles prints, for every (workload, metric) pair, both values,
// the relative difference and the bound from BENCHMARK.json. ok is false
// when an end-to-end metric of b is worse than a's by more than its
// bound, or b failed a larger share of requests.
func compareFiles(dir, aPath, bPath string) (bool, error) {
	spec, err := loadSpec(dir)
	if err != nil {
		return false, err
	}
	a, err := loadRun(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadRun(bPath)
	if err != nil {
		return false, err
	}
	am, bm := a.Meta, b.Meta
	if am.NProc != bm.NProc || am.GOMAXPROCS != bm.GOMAXPROCS || am.Seed != bm.Seed ||
		math.Abs(am.Seconds-bm.Seconds) > 1e-9 || am.Trace != bm.Trace {
		return false, fmt.Errorf("refusing to compare runs of different settings: %+v vs %+v", am, bm)
	}
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	fmt.Printf("%-22s %-22s %12s %12s %9s %7s\n", "workload", "metric", "a", "b", "diff", "bound")
	for _, name := range names {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			fmt.Printf("%-22s missing from %s\n", name, bPath)
			ok = false
			continue
		}
		for _, e := range spec.EndToEnd {
			if _, has := ra.Metrics[e.Name]; !has {
				continue
			}
			va, vb := ra.Metrics[e.Name].Value, rb.Metrics[e.Name].Value
			rel := ratio(vb-va, va)
			worse := rel > e.Bound
			if e.Better == "higher" {
				worse = -rel > e.Bound
			}
			mark := ""
			if worse {
				mark, ok = "  REGRESSION", false
			}
			fmt.Printf("%-22s %-22s %12.6g %12.6g %+8.1f%% %6.0f%%%s\n", name, e.Name, va, vb, 100*rel, 100*e.Bound, mark)
		}
		for _, l := range spec.PerLayer {
			if _, has := ra.Metrics[l.Name]; !has {
				continue
			}
			va, vb := ra.Metrics[l.Name].Value, rb.Metrics[l.Name].Value
			fmt.Printf("%-22s %-22s %12.6g %12.6g %+8.1f%% %7s\n", name, l.Name, va, vb, 100*ratio(vb-va, va), "-")
		}
		mark := ""
		if rb.FailedFrac > ra.FailedFrac {
			mark, ok = "  REGRESSION", false
		}
		fmt.Printf("%-22s %-22s %12.6g %12.6g %9s %7s%s\n", name, "failed_frac", ra.FailedFrac, rb.FailedFrac, "", "any", mark)
	}
	return ok, nil
}
