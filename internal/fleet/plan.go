package fleet

import (
	"sync"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
	"energyprop/internal/fault"
	"energyprop/internal/policy"
)

// Plan is one campaign's device stack, built the same way for both CLIs
// and the service. Open wraps in exactly one order, locally and on every
// fleet node:
//
//	registry device → Analytic() (if asked) → policy.Wrap → fault.Wrap
//
// The fault injector goes outermost because its attempt schedule is
// keyed by the configuration key it sees: over a policy wrapper that key
// names the strategy too, so the race and paced points of one inner
// configuration draw independent schedules, and a point's faults never
// depend on which of its siblings ran first.
type Plan struct {
	// Device is the registry name.
	Device string
	// Analytic selects the constant analytic profile where the backend
	// distinguishes it from the traced one (the model-true sweep).
	Analytic bool
	// Policy, when set, puts the device under an energy policy.
	Policy *policy.Options
	// Faults is the device-fault schedule; the zero plan injects nothing.
	// Under a fleet every node derives its own schedule with NodePlan.
	Faults fault.Plan
	// Fleet, when set, shards the campaign across simulated nodes; nil
	// runs it on the local pool.
	Fleet *Options
}

// Stack is an opened Plan.
type Stack struct {
	// Ref is the clean stack (no fault injector): the device whose
	// identity, Configs, and Spec name the campaign and its record.
	Ref device.Device
	// Dev is the device to Stream: Ref under the local fault injector,
	// or Ref itself when faults are off or live on the fleet nodes.
	Dev device.Device
	// Executor shards the campaign across Coord; nil means the local
	// pool.
	Executor campaign.Executor
	// Coord is the fleet coordinator, nil for a local campaign.
	Coord *Coordinator
	// Injectors collects every fault injector the stack creates.
	Injectors *Injectors
}

// Open validates the plan and builds its stack. Fleet nodes open their
// devices lazily (at each run start and on every remediation) through
// the same construction, so a node's stack differs from the local one
// only in its NodePlan-derived fault seed.
func (p Plan) Open() (*Stack, error) {
	if err := p.Faults.Validate(); err != nil {
		return nil, err
	}
	ref, err := p.base()
	if err != nil {
		return nil, err
	}
	st := &Stack{Ref: ref, Dev: ref, Injectors: &Injectors{}}
	if p.Fleet == nil {
		if p.Faults.Enabled() {
			if st.Dev, err = st.Injectors.wrap(ref, p.Faults); err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	st.Coord, err = New(*p.Fleet, func(node string) (device.Device, error) {
		dev, err := p.base()
		if err != nil || !p.Faults.Enabled() {
			return dev, err
		}
		return st.Injectors.wrap(dev, NodePlan(p.Faults, node))
	})
	if err != nil {
		return nil, err
	}
	st.Executor = Executor{Coord: st.Coord}
	return st, nil
}

// base opens the fault-free part of the stack: the registry device,
// its analytic variant if asked, and the policy wrapper.
func (p Plan) base() (device.Device, error) {
	dev, err := device.Open(p.Device)
	if err != nil {
		return nil, err
	}
	if ap, ok := dev.(device.AnalyticProvider); ok && p.Analytic {
		dev = ap.Analytic()
	}
	if p.Policy == nil {
		return dev, nil
	}
	return policy.Wrap(dev, *p.Policy)
}

// NodePlan derives one node's device-fault plan from a fleet-wide one:
// the same schedule shape with a seed hashed per node, so two nodes
// never replay identical device-level fault sequences.
func NodePlan(plan fault.Plan, node string) fault.Plan {
	plan.Seed = device.AttemptSeed(plan.Seed, "devplan\x00"+node, 0)
	return plan
}

// Injectors collects the fault injectors a Stack creates: the one local
// wrapper, or one per node device the fleet opens, remediation reopens
// included.
type Injectors struct {
	mu   sync.Mutex
	devs []*fault.Device
}

func (in *Injectors) wrap(dev device.Device, plan fault.Plan) (*fault.Device, error) {
	inj, err := fault.Wrap(dev, plan)
	if err != nil {
		return nil, err
	}
	in.mu.Lock()
	in.devs = append(in.devs, inj)
	in.mu.Unlock()
	return inj, nil
}

// Stats sums the counters of every injector; n is how many there are.
func (in *Injectors) Stats() (s fault.Stats, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, inj := range in.devs {
		is := inj.Stats()
		s.Runs += is.Runs
		s.Transients += is.Transients
		s.Drops += is.Drops
		s.Outliers += is.Outliers
		s.Delays += is.Delays
	}
	return s, len(in.devs)
}
