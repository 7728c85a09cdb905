package minimr

import (
	"context"
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// Run executes the jobs over the (already-populated, possibly
// failure-injected) DFS and returns the report. The DFS's cluster provides
// topology, slots, and failure state; Run does not mutate the failure
// state itself — inject failures before calling (as the paper does by
// killing a slave before submitting jobs). The heartbeat-driven master
// loop is the shared cluster runtime, driven here by a real-bytes backend
// that reads blocks, reconstructs lost ones, and runs the real map and
// reduce functions.
func Run(fs *dfs.FS, opts Options, jobs []Job) (*Report, error) {
	return RunContext(context.Background(), fs, opts, jobs)
}

// RunContext is Run with cancellation: ctx aborts the run at the next
// heartbeat.
func RunContext(ctx context.Context, fs *dfs.FS, opts Options, jobs []Job) (*Report, error) {
	h, err := NewHarness(fs, &opts, jobs)
	if err != nil {
		return nil, err
	}
	cluster := fs.Cluster()
	backend := &realBackend{
		fs:      fs,
		cluster: cluster,
		opts:    opts,
		jobs:    jobs,
		rng:     stats.NewRNG(opts.Seed),
		blocks:  h.Blocks,
		holders: h.Holders,
	}
	for i := range jobs {
		backend.runs = append(backend.runs, make([][][]KeyValue, jobs[i].NumReducers))
		backend.outputs = append(backend.outputs, make(map[string]string))
	}

	res, err := runtime.Run(runtime.Params{
		Name:                "minimr",
		Ctx:                 ctx,
		Engine:              h.Engine,
		Cluster:             cluster,
		Net:                 h.Net,
		Scheduler:           h.Scheduler,
		Env:                 h.Env,
		JobSched:            opts.JobSched,
		HeartbeatInterval:   opts.HeartbeatInterval,
		OutOfBandHeartbeats: opts.OutOfBandHeartbeats,
		MaxSimTime:          opts.MaxSimTime,
		Hedge:               opts.Hedge,
		Repair:              opts.Repair,
		Sink:                opts.Trace,
		Label:               opts.TraceLabel,
		TraceFlowRates:      opts.TraceFlowRates,
	}, backend, h.RJobs)
	if err != nil {
		return nil, err
	}

	return &Report{
		Scheduler:   res.Scheduler,
		Failed:      res.Failed,
		Jobs:        res.Jobs,
		Outputs:     backend.outputs,
		Makespan:    res.Makespan,
		BytesMoved:  res.BytesMoved,
		WastedBytes: res.WastedBytes,
		Repair:      res.Repair,
	}, nil
}

// realBackend is the real-bytes runtime backend: map inputs are read (or
// Reed-Solomon reconstructed) from the DFS, the real map and reduce
// functions run over real records, and task costs are calibrated from the
// processed byte counts.
type realBackend struct {
	fs      *dfs.FS
	cluster *topology.Cluster
	opts    Options
	jobs    []Job
	rng     *stats.RNG
	blocks  [][]erasure.BlockID
	holders [][]topology.NodeID
	// runs[job][reducer] holds the runs the shuffle delivered to the
	// reducer, in delivery order.
	runs    [][][][]KeyValue
	outputs []map[string]string
	mapBuf  MapBuffer
	// picked remembers each degraded task's latest primary sources so
	// SpareSources can exclude them. Keyed by (job, task).
	picked map[[2]int][]dfs.Source
}

func (b *realBackend) speed(id topology.NodeID) float64 {
	return b.cluster.Node(id).SpeedFactor
}

// PlanInput implements runtime.Backend: read the block (local, rack, or
// remote: one block transfer from the holder), or reconstruct it for real
// via a degraded read (k source transfers).
func (b *realBackend) PlanInput(job, task int, class sched.Class, node topology.NodeID) ([]runtime.Transfer, any, error) {
	js := b.jobs[job]
	block := b.blocks[job][task]
	blockBytes := float64(b.fs.BlockSize())
	switch class {
	case sched.ClassNodeLocal, sched.ClassRackLocal, sched.ClassRemote:
		data, err := b.fs.ReadBlock(js.Input, block)
		if err != nil {
			return nil, nil, fmt.Errorf("minimr: reading %v: %w", block, err)
		}
		if class == sched.ClassNodeLocal {
			return nil, data, nil
		}
		return []runtime.Transfer{{Src: b.holders[job][task], Bytes: blockBytes}}, data, nil
	case sched.ClassDegraded:
		// Reconstruct for real (Reed-Solomon decode over the surviving
		// blocks), then charge the k transfers through the network model.
		data, sources, err := b.fs.DegradedRead(js.Input, block, node, b.opts.SourceStrategy, b.rng)
		if err != nil {
			return nil, nil, fmt.Errorf("minimr: degraded read of %v: %w", block, err)
		}
		if b.picked == nil {
			b.picked = make(map[[2]int][]dfs.Source)
		}
		b.picked[[2]int{job, task}] = sources
		transfers := make([]runtime.Transfer, len(sources))
		for i, src := range sources {
			transfers[i] = runtime.Transfer{Src: src.Node, Bytes: blockBytes}
		}
		return transfers, data, nil
	default:
		return nil, nil, fmt.Errorf("minimr: unknown class %v", class)
	}
}

// SpareSources implements runtime.HedgedBackend: surviving stripe blocks
// beyond the primaries used by the latest DegradedRead, deterministically
// ordered by stripe index (no RNG draws). The reconstruction itself
// already happened in PlanInput — under the virtual clock the spare
// transfers only shape timing, and Reed-Solomon decoding from any k
// survivors yields identical bytes.
func (b *realBackend) SpareSources(job, task int, node topology.NodeID, max int) ([]runtime.Transfer, error) {
	js := b.jobs[job]
	f, err := b.fs.File(js.Input)
	if err != nil {
		return nil, fmt.Errorf("minimr: spare sources for %q: %w", js.Input, err)
	}
	primaries := b.picked[[2]int{job, task}]
	if len(primaries) != b.fs.Code().K() {
		// A locality-aware code repaired from a local group; such plans
		// are not any-k substitutable, so no spares.
		return nil, nil
	}
	block := b.blocks[job][task]
	spares := dfs.SpareSources(b.cluster, f.Placement, block, primaries, max)
	transfers := make([]runtime.Transfer, len(spares))
	for i, src := range spares {
		transfers[i] = runtime.Transfer{Src: src.Node, Bytes: float64(b.fs.BlockSize())}
	}
	return transfers, nil
}

// Execute implements runtime.Backend: run the real map function,
// partition its output, and charge the calibrated CPU time.
func (b *realBackend) Execute(job, task int, node topology.NodeID, input any) (float64, any) {
	js := b.jobs[job]
	data := input.([]byte)
	dur := js.MapCost.Seconds(float64(len(data))) * b.speed(node)
	if js.NumReducers == 0 {
		// Map-only job: map output is the job output.
		out := b.outputs[job]
		js.Map(data, func(k, v string) { out[k] = v })
		return dur, mapOutput{}
	}
	runs, bytes := b.mapBuf.Map(js.Map, data, js.NumReducers)
	return dur, mapOutput{runs: runs, bytes: bytes}
}

// mapOutput is one map task's output: its per-reducer runs and their
// shuffle volumes.
type mapOutput struct {
	runs  [][]KeyValue
	bytes []float64
}

// Partitions implements runtime.Backend: hand each partition's real bytes
// and records to the shuffle.
func (b *realBackend) Partitions(job, task int, output any) []runtime.Chunk {
	out := output.(mapOutput)
	chunks := make([]runtime.Chunk, len(out.runs))
	for i, run := range out.runs {
		chunks[i] = runtime.Chunk{Bytes: out.bytes[i], Data: run}
	}
	return chunks
}

// Deliver implements runtime.Backend: keep the received run for the
// reduce phase, after the runs delivered before it.
func (b *realBackend) Deliver(job, reducer int, node topology.NodeID, c runtime.Chunk) error {
	if run, ok := c.Data.([]KeyValue); ok && len(run) > 0 {
		b.runs[job][reducer] = append(b.runs[job][reducer], run)
	}
	return nil
}

// ReduceDuration implements runtime.Backend: calibrated from the real
// shuffle volume received.
func (b *realBackend) ReduceDuration(job, reducer int, node topology.NodeID, receivedBytes float64) float64 {
	return b.jobs[job].ReduceCost.Seconds(receivedBytes) * b.speed(node)
}

// ReduceReset implements runtime.Backend: drop the runs delivered to
// the failed node; the restarted reducer re-fetches everything.
func (b *realBackend) ReduceReset(job, reducer int) {
	b.runs[job][reducer] = nil
}

// ReduceFinish implements runtime.Backend: run the real reduce function
// over the received runs, in delivery order, and merge its output into
// the job output.
func (b *realBackend) ReduceFinish(job, reducer int) {
	out := b.outputs[job]
	GroupReduce(b.runs[job][reducer], b.jobs[job].Reduce, func(k, v string) { out[k] = v })
	b.runs[job][reducer] = nil
}

// PartitionOf maps an intermediate key to its reducer index. It is
// exported because the distributed runtime's workers must partition map
// output exactly as the in-process engine does, or the two produce
// different shuffles for the same job.
func PartitionOf(key string, numR int) int {
	// 32-bit FNV-1a, inlined: hash/fnv would allocate a hasher and a
	// copy of the key for every record.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(numR))
}
