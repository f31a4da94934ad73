// Package hetero is the heterogeneous platform of the paper's companion
// work (its ref [12]: bi-objective optimization of hybrid data-parallel
// applications on CPU+GPU platforms): it builds discrete per-processor
// time/energy profiles by running unit workloads on a set of processors
// and feeds them to the workload-distribution solver in
// internal/optimize. device.PaperPlatform builds the paper's Fig 1
// ensemble (one Haswell node, one K40c, one P100) as such processors,
// running each family through the same device tables every campaign
// uses.
package hetero

import (
	"errors"
	"fmt"

	"energyprop/internal/optimize"
)

// Processor abstracts one device that can solve an integer number of
// workload units (a unit being, e.g., one matrix product of a fixed size).
type Processor interface {
	// Name identifies the processor in distributions.
	Name() string
	// RunUnits returns the execution time and dynamic energy of solving
	// the given number of units. RunUnits(0) must return (0, 0, nil).
	RunUnits(units int) (seconds, dynEnergyJ float64, err error)
}

// BuildProfile runs the processor at every unit count 0..maxUnits and
// returns its discrete time/energy profile for the distribution solver.
func BuildProfile(p Processor, maxUnits int) (*optimize.ProcessorProfile, error) {
	if p == nil {
		return nil, errors.New("hetero: nil processor")
	}
	if maxUnits < 1 {
		return nil, errors.New("hetero: maxUnits must be >= 1")
	}
	prof := &optimize.ProcessorProfile{
		Name:    p.Name(),
		TimeS:   make([]float64, maxUnits+1),
		EnergyJ: make([]float64, maxUnits+1),
	}
	for w := 1; w <= maxUnits; w++ {
		t, e, err := p.RunUnits(w)
		if err != nil {
			return nil, fmt.Errorf("hetero: %s at %d units: %w", p.Name(), w, err)
		}
		prof.TimeS[w] = t
		prof.EnergyJ[w] = e
	}
	return prof, nil
}

// Distribute profiles every processor and returns the Pareto-optimal
// distributions of totalUnits across them.
func Distribute(procs []Processor, totalUnits int) ([]optimize.Distribution, error) {
	if len(procs) == 0 {
		return nil, errors.New("hetero: no processors")
	}
	profiles := make([]*optimize.ProcessorProfile, len(procs))
	for i, p := range procs {
		prof, err := BuildProfile(p, totalUnits)
		if err != nil {
			return nil, err
		}
		profiles[i] = prof
	}
	return optimize.DistributeWorkload(totalUnits, profiles)
}
