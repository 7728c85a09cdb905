// Background-repair planning for the simulated backend: the healer's
// engine-specific half over the per-job placements. No bytes exist in
// this engine, so a "repair" is pure bookkeeping — pick survivors to
// read, pick a destination, and move the placement when the runtime's
// repair flows complete — while the network cost of the reads is what
// actually competes with foreground traffic.

package mapred

import (
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/topology"
)

// jobFile is the synthetic DFS name of one job's input file in repair
// plans and trace events. The job index prefix keeps names unique even
// when two jobs share a spec name.
func (b *simBackend) jobFile(job int) string {
	return fmt.Sprintf("job%d/%s", job, b.specs[job].Name)
}

// fileJob resolves a synthetic file name back to its job index.
func (b *simBackend) fileJob(file string) (int, error) {
	if b.fileIdx == nil {
		b.fileIdx = make(map[string]int, len(b.specs))
		for i := range b.specs {
			b.fileIdx[b.jobFile(i)] = i
		}
	}
	job, ok := b.fileIdx[file]
	if !ok {
		return 0, fmt.Errorf("mapred: unknown repair file %q", file)
	}
	return job, nil
}

// planStripe builds the repair plan for one stripe of one job's file.
// Source selection models the configured code without real shards: a
// full reconstruction reads the k lowest-index survivors, and when
// RepairBlockCount < k (a locality-aware code per footnote 1) a
// single-loss stripe repairs locally from RepairBlockCount survivors.
// Multi-loss stripes always fall back to the full k-source path — a
// local group with two losses cannot self-heal. Like dfs.PlanStripe, a
// stripe past n-k losses, or with a lost block no alive node can host,
// is planned as unrepairable.
func (b *simBackend) planStripe(job, s int) repair.StripePlan {
	place := b.places[job]
	plan := repair.StripePlan{
		Key: repair.Key{File: b.jobFile(job), Stripe: s},
		N:   place.N(),
		K:   place.K(),
	}
	var lost []int
	survivors := make([]repair.Source, 0, place.N())
	for i, h := range place.StripeHolders(s) {
		if b.cluster.Alive(h) {
			survivors = append(survivors, repair.Source{Node: h, Index: i})
		} else {
			lost = append(lost, i)
		}
	}
	plan.Lost = len(lost)
	if len(lost) == 0 {
		return plan
	}
	if len(lost) > plan.N-plan.K {
		plan.Unrepairable = true
		return plan
	}
	reads := plan.K
	local := false
	if len(lost) == 1 && b.cfg.RepairBlockCount < plan.K {
		reads = b.cfg.RepairBlockCount
		local = true
	}
	taken := make(map[topology.NodeID]bool, len(lost))
	for _, idx := range lost {
		dest, err := dfs.PickRepairDestination(b.cluster, place, s, taken)
		if err != nil {
			plan.Blocks = nil
			plan.Unrepairable = true
			return plan
		}
		taken[dest] = true
		plan.Blocks = append(plan.Blocks, repair.BlockPlan{
			Index:   idx,
			Dest:    dest,
			Sources: append([]repair.Source(nil), survivors[:reads]...),
			Local:   local,
		})
	}
	return plan
}

// ScanLostBlocks implements runtime.RepairBackend: every stripe of every
// job's file that lost a block to one of the failed nodes, in job then
// stripe order. Each plan covers all of its stripe's losses, so a rescan
// after a second failure subsumes earlier pending work.
func (b *simBackend) ScanLostBlocks(failed []topology.NodeID) ([]repair.StripePlan, error) {
	failedSet := make(map[topology.NodeID]bool, len(failed))
	for _, id := range failed {
		failedSet[id] = true
	}
	var plans []repair.StripePlan
	for job := range b.places {
		place := b.places[job]
		for s := 0; s < place.NumStripes(); s++ {
			hit := false
			for _, h := range place.StripeHolders(s) {
				if b.cluster.Alive(h) {
					continue
				}
				if len(failedSet) == 0 || failedSet[h] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
			if plan := b.planStripe(job, s); plan.Lost > 0 {
				plans = append(plans, plan)
			}
		}
	}
	return plans, nil
}

// PlanStripeRepair implements runtime.RepairBackend: a launch-time
// re-plan from the live placement, so blocks repaired since the stripe
// was queued are not rebuilt twice.
func (b *simBackend) PlanStripeRepair(key repair.Key) (repair.StripePlan, error) {
	job, err := b.fileJob(key.File)
	if err != nil {
		return repair.StripePlan{}, err
	}
	if key.Stripe < 0 || key.Stripe >= b.places[job].NumStripes() {
		return repair.StripePlan{}, fmt.Errorf("mapred: job %d has no stripe %d", job, key.Stripe)
	}
	return b.planStripe(job, key.Stripe), nil
}

// CommitRepair implements runtime.RepairBackend: move the block's
// placement to its rebuilt copy and report the foreground task (if any —
// parity blocks back no task) whose input just came back.
func (b *simBackend) CommitRepair(key repair.Key, bp repair.BlockPlan) ([]runtime.RepairedTask, error) {
	job, err := b.fileJob(key.File)
	if err != nil {
		return nil, err
	}
	place := b.places[job]
	block := erasure.BlockID{Stripe: key.Stripe, Index: bp.Index}
	if b.cluster.Alive(place.Holder(block)) {
		return nil, fmt.Errorf("mapred: block %v of job %d is not lost (holder %d alive)",
			block, job, place.Holder(block))
	}
	if !b.cluster.Alive(bp.Dest) {
		return nil, &runtime.DeadNodeError{Nodes: []topology.NodeID{bp.Dest}}
	}
	place.Reassign(block, bp.Dest)
	var refs []runtime.RepairedTask
	for t, tb := range b.blocks[job] {
		if tb == block {
			refs = append(refs, runtime.RepairedTask{Job: job, Task: t})
		}
	}
	return refs, nil
}

// RepairBlockBytes implements runtime.RepairBackend.
func (b *simBackend) RepairBlockBytes() float64 { return b.cfg.BlockSizeBytes }
