package gpusim

import "fmt"

// The CUBLAS baseline. The paper's Section IV design discussion considers
// and rejects the CUBLAS DGEMM routine "since it lacks application-level
// tuning variables" — it is the single-configuration library baseline the
// tunable Fig 5 kernel is implicitly compared against. Modeling it lets
// the harness quantify that comparison: the library kernel is faster than
// any Fig 5 configuration (hand-tuned register blocking), but it offers
// exactly one point in the time×energy plane, so it admits no
// bi-objective optimization at all.

// cublasSpeedup is the library kernel's throughput advantage over the
// best Fig 5 configuration (register blocking, double buffering,
// wide loads — roughly 1.6× on both boards for large DGEMM).
const cublasSpeedup = 1.6

// RunCUBLASDGEMM models the library DGEMM computing `products` N×N
// products. There are no decision variables: the call returns the one
// outcome the library gives.
func (d *Device) RunCUBLASDGEMM(w MatMulWorkload) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if w.N < MaxBS {
		return nil, fmt.Errorf("gpusim: CUBLAS model needs N >= %d", MaxBS)
	}
	// The library kernel behaves like the best Fig 5 configuration sped
	// up by the register-blocking factor, at proportionally higher core
	// utilization (it keeps the FP64 pipes busier, not cheaper).
	best := MatMulConfig{BS: MaxBS, G: 1, R: w.Products}
	r, err := d.RunMatMul(w, best)
	if err != nil {
		return nil, err
	}
	perf := r.Profile.AchievedGFLOPs * cublasSpeedup
	seconds := r.Work/(perf*1e9) + d.cal.launchOverheadS
	// Power scales with the higher pipe duty, bounded by the TDP envelope.
	power := r.DynPowerW * (1 + 0.35*(cublasSpeedup-1))
	if max := d.Spec.TDPWatts - d.Spec.IdlePowerW; power > max {
		power = max
	}
	out := *r
	out.Config = MatMulConfig{BS: 0, G: 0, R: 0} // no decision variables
	out.Seconds = seconds
	out.DynPowerW = power
	out.DynEnergyJ = power * seconds
	out.GFLOPs = r.Work / seconds / 1e9
	return &out, nil
}
