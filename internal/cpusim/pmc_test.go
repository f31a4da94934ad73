package cpusim

import (
	"testing"

	"energyprop/internal/dense"
)

func TestCollectPMCValidation(t *testing.T) {
	m := NewHaswell()
	if _, err := m.CollectPMC(nil); err == nil {
		t.Error("nil result: want error")
	}
	if _, err := m.CollectPMC(&Result{Seconds: 0}); err == nil {
		t.Error("zero duration: want error")
	}
}

func TestCollectPMCAllEventsPresent(t *testing.T) {
	m := NewHaswell()
	r, err := m.RunGEMM(GEMMApp{N: 4096, Config: dense.Config{Groups: 2, ThreadsPerGroup: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.CollectPMC(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range AllPMCEvents() {
		v, ok := c[e]
		if !ok {
			t.Errorf("event %s missing", e)
			continue
		}
		if v < 0 {
			t.Errorf("event %s negative: %v", e, v)
		}
	}
	if c[PMCAvgUtilization] <= 0 || c[PMCAvgUtilization] > 100 {
		t.Errorf("avg utilization %v out of (0,100]", c[PMCAvgUtilization])
	}
}

func TestCollectPMCDTLBTracksPartitionAndVariant(t *testing.T) {
	m := NewHaswell()
	counts := func(part dense.Partition, v dense.Variant) PMCCounts {
		r, err := m.RunGEMM(GEMMApp{
			N:       8192,
			Config:  dense.Config{Groups: 2, ThreadsPerGroup: 6, Partition: part},
			Variant: v,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := m.CollectPMC(r)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	packedContig := counts(dense.PartitionContiguous, dense.VariantPacked)
	cyclic := counts(dense.PartitionCyclic, dense.VariantPacked)
	tiled := counts(dense.PartitionContiguous, dense.VariantTiled)
	if cyclic[PMCDTLBWalkCycles] <= packedContig[PMCDTLBWalkCycles] {
		t.Error("cyclic partition should raise dTLB walk cycles")
	}
	if tiled[PMCDTLBWalkCycles] <= packedContig[PMCDTLBWalkCycles] {
		t.Error("tiled variant should raise dTLB walk cycles")
	}
	// Instruction count is workload-determined, not configuration-
	// determined: identical across these runs.
	if cyclic[PMCInstructions] != packedContig[PMCInstructions] {
		t.Error("instructions must depend only on the workload")
	}
}

func TestCollectPMCAdditiveInWorkload(t *testing.T) {
	// Doubling N in a cubic workload multiplies instructions by 8: the
	// counts must scale with the work, which is what makes them usable as
	// linear-model variables.
	m := NewHaswell()
	cfg := dense.Config{Groups: 2, ThreadsPerGroup: 4}
	small, err := m.RunGEMM(GEMMApp{N: 2048, Config: cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	big, err := m.RunGEMM(GEMMApp{N: 4096, Config: cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := m.CollectPMC(small)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := m.CollectPMC(big)
	if err != nil {
		t.Fatal(err)
	}
	ratio := cb[PMCInstructions] / cs[PMCInstructions]
	if ratio < 7.9 || ratio > 8.1 {
		t.Errorf("instruction ratio %v, want 8", ratio)
	}
}
