package fleet

import (
	"errors"
	"fmt"

	"energyprop/internal/device"
)

// DeviceFactory opens the device a named node hosts. The coordinator
// calls it once per node at the start of a run and again whenever the
// node is remediated (remediation models a node reboot, so the node
// comes back with a fresh device instance). The returned device must
// carry the same measurement identity as the campaign's reference
// device — same registry name, kind, and catalog spec — or fleet
// records will differ from the local executor's.
type DeviceFactory func(node string) (device.Device, error)

// node is one simulated worker in the fleet: a hosted device plus the
// health bookkeeping the coordinator's control loop runs on. All node
// state is owned by the coordinator's single-threaded scheduling rounds;
// only the hosted device is touched concurrently (by the round's
// parallel shard executions), and devices are safe for concurrent Run.
type node struct {
	name string
	dev  device.Device

	// busyUntil is the virtual completion time of the in-flight
	// assignment; zero when idle.
	busyUntil  Tick
	assignment *assignment

	// cordoned marks the node out of dispatch rotation; cordonUntil is
	// when remediation may return it to service.
	cordoned    bool
	cordonUntil Tick

	// failStreak counts consecutive failed health checks; strikes
	// counts preemptions charged to this node. Either crossing its
	// policy threshold cordons the node.
	failStreak int
	strikes    int
}

// assignment is one dispatched (shard, attempt) with its drawn fate.
type assignment struct {
	shard    int
	attempt  int
	preempt  bool
	outcomes []int // the shard's item indexes
}

// busy reports whether the node has an in-flight assignment.
func (n *node) busy() bool { return n.assignment != nil }

// NodeStatus is one node's externally visible state, snapshotted by
// Coordinator.Nodes.
type NodeStatus struct {
	Name     string `json:"name"`
	Cordoned bool   `json:"cordoned"`
	Busy     bool   `json:"busy"`
	Strikes  int    `json:"strikes"`
}

// openNodes builds the run's nodes from the factory. Node names are
// ordinal ("node0", "node1", ...) so every schedule hash has a stable
// identity to mix.
func openNodes(count int, factory DeviceFactory) ([]*node, error) {
	if count < 1 {
		return nil, errors.New("fleet: need at least one node")
	}
	if factory == nil {
		return nil, errors.New("fleet: nil device factory")
	}
	nodes := make([]*node, count)
	for i := range nodes {
		name := fmt.Sprintf("node%d", i)
		dev, err := factory(name)
		if err != nil {
			return nil, fmt.Errorf("fleet: opening device for %s: %w", name, err)
		}
		if dev == nil {
			return nil, fmt.Errorf("fleet: factory returned nil device for %s", name)
		}
		nodes[i] = &node{name: name, dev: dev}
	}
	return nodes, nil
}
