// Package counters emulates the CUPTI performance-event layer the paper's
// Section IV design goals depend on: per-kernel event counts derived from
// the gpusim machine model, the 32-bit overflow behaviour that made CUPTI
// "inadequate to analyze the energy nonproportionality" for N > 2048, the
// additivity property of the theory of energy predictive models (a model
// variable's count for a compound application must equal the sum of its
// counts for the base applications), and linear energy-model fitting on
// the events that pass the additivity test.
package counters

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"energyprop/internal/gpusim"
)

// Event identifies one CUPTI-style event or metric.
type Event string

// The modeled events. All raw counts are additive under serial
// composition; SMEfficiency is a ratio metric and is deliberately
// non-additive, which is exactly why the additivity test must reject it
// as an energy-model variable.
const (
	FlopCountDP            Event = "flop_count_dp"
	DRAMReadTransactions   Event = "dram_read_transactions"
	DRAMWriteTransactions  Event = "dram_write_transactions"
	SharedLoadTransactions Event = "shared_load_transactions"
	InstExecuted           Event = "inst_executed"
	WarpsLaunched          Event = "warps_launched"
	ActiveCycles           Event = "active_cycles"
	SMEfficiency           Event = "sm_efficiency" // percent; a ratio, not a count
)

// AllEvents lists every modeled event in a stable order.
func AllEvents() []Event {
	return []Event{
		FlopCountDP, DRAMReadTransactions, DRAMWriteTransactions,
		SharedLoadTransactions, InstExecuted, WarpsLaunched,
		ActiveCycles, SMEfficiency,
	}
}

// Counts maps events to their (true, unwrapped) values for one
// application run.
type Counts map[Event]float64

// Collect derives the event counts of a kernel execution from its machine
// profile: `products` matrix products under the profile's (N, BS, G), with
// the given kernel time and SM clock.
func Collect(p gpusim.KernelProfile, products int, seconds, clockMHz float64, sms int) (Counts, error) {
	if products < 1 {
		return nil, fmt.Errorf("counters: products=%d must be >= 1", products)
	}
	if seconds <= 0 || clockMHz <= 0 || sms < 1 {
		return nil, errors.New("counters: seconds, clockMHz, and sms must be positive")
	}
	fp := float64(products)
	flops := p.FlopsPerProduct * fp
	// DRAM transactions are 32-byte; the write stream is one store per C
	// element per product.
	reads := p.GlobalBytesPerProduct * fp / 32
	writes := float64(p.N) * float64(p.N) * 8 * fp / 32
	// Two 8-byte shared loads feed every FMA (2 flops); transactions are
	// per warp (32 lanes × 8 B = 256 B).
	sharedLoads := p.SharedBytesPerProduct * fp / 256
	// Instruction mix: one FMA per 2 flops, ~1.8 companion instructions
	// (loads, address math, predicates) per FMA, normalized per warp.
	instr := flops / 2 * (1 + 1.8) / 32
	warps := float64(p.Blocks) * float64(p.WarpsPerBlock) * fp
	activeCycles := seconds * clockMHz * 1e6 * float64(sms) * p.Occupancy
	return Counts{
		FlopCountDP:            flops,
		DRAMReadTransactions:   reads,
		DRAMWriteTransactions:  writes,
		SharedLoadTransactions: sharedLoads,
		InstExecuted:           instr,
		WarpsLaunched:          warps,
		ActiveCycles:           activeCycles,
		SMEfficiency:           100 * p.Occupancy * p.WaveTailEfficiency,
	}, nil
}

// counterMax is the CUPTI hardware-counter width the paper ran into.
const counterMax = float64(1 << 32)

// Overflowed reports which events of the true counts would overflow a
// 32-bit counter, sorted by name.
func Overflowed(c Counts) []Event {
	var out []Event
	for e, v := range c {
		if e != SMEfficiency && v >= counterMax {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AdditivityReport holds per-event additivity errors for one compound
// application versus its base applications.
type AdditivityReport struct {
	// RelError maps each event to |compound − Σ bases| / Σ bases (0 when
	// the base sum is 0 and the compound count is too).
	RelError map[Event]float64
}

// Additivity computes the additivity error of every event: the compound
// application's count versus the sum of the base applications' counts.
// The theory's rule: an event is fit for a linear energy model only if
// this error is (near) zero.
func Additivity(compound Counts, bases ...Counts) (*AdditivityReport, error) {
	if len(bases) == 0 {
		return nil, errors.New("counters: need at least one base application")
	}
	rep := &AdditivityReport{RelError: map[Event]float64{}}
	for e, cv := range compound {
		sum := 0.0
		for _, b := range bases {
			bv, ok := b[e]
			if !ok {
				return nil, fmt.Errorf("counters: event %s missing from a base application", e)
			}
			sum += bv
		}
		switch {
		case sum == 0 && cv == 0:
			rep.RelError[e] = 0
		case sum == 0:
			rep.RelError[e] = math.Inf(1)
		default:
			rep.RelError[e] = math.Abs(cv-sum) / sum
		}
	}
	return rep, nil
}

// Additive returns the events whose additivity error is at most tol,
// sorted by name — the model-variable selection step.
func (r *AdditivityReport) Additive(tol float64) []Event {
	var out []Event
	for e, err := range r.RelError {
		if err <= tol {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
