package fleet

import (
	"context"

	"energyprop/internal/campaign"
	"energyprop/internal/device"
)

// Executor adapts a Coordinator to campaign.Executor, so any
// campaign.Stream caller — the HTTP service, gpusweep, epstudy —
// can shard a campaign across the simulated fleet by setting
// Spec.Executor, with no other change. Each point is measured on the
// hosting node's device through the same cache/retry path as the local
// pool (campaign.Job.MeasureOn) and committed from whichever node
// finished it; job.Commit delivers outcomes to the campaign's sink in
// configuration order, so the streamed record is byte-identical to a
// local run: node choice, preemptions, cordons, and remediations move
// wall-clock and provenance, never measured bytes.
type Executor struct {
	Coord *Coordinator
}

// Execute implements campaign.Executor through the coordinator's shard
// scheduler; a round's shards run at most job.Spec.Workers at a time.
func (e Executor) Execute(ctx context.Context, job *campaign.Job) error {
	return e.Coord.run(ctx, job.Spec.Workers, len(job.Configs), func(ctx context.Context, dev device.Device, i int) error {
		o, err := job.MeasureOn(ctx, dev, i)
		if err != nil {
			return err
		}
		return job.Commit(i, o)
	})
}
