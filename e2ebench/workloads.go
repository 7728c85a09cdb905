package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"degradedfirst/internal/cluster"
	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
	"degradedfirst/internal/workload"
)

// size fixes how much work one round of each workload does. The full
// size is what the benchmark measures; tests use a tiny one.
type size struct {
	simBlocks     int // paper-sim: native blocks of the single job (paper: 1440)
	simHotBlocks  int // paper-sim: blocks of the 30%-shuffle ops
	storms        int // job-storm: storms per round
	stormJobs     int // job-storm: jobs per storm
	testbedBlocks int // testbed-mr: corpus blocks (paper: 240)
	clusterBlocks int // loopback-cluster: corpus blocks
}

var fullSize = size{simBlocks: 1440, simHotBlocks: 240, storms: 8, stormJobs: 2000, testbedBlocks: 120, clusterBlocks: 60}

// op is one closed-loop operation: a single call into one of the
// program's public entry points, then a check of what it returned. Only
// the call is timed.
type op struct {
	name  string
	layer string // the entry point's package: mapred, minimr or cluster
	call  func(ctx context.Context, sink trace.Sink) (reply, error)
	check func(reply) error
}

// reply is what one call returned: its virtual outcome and, for the
// real-bytes engines, each job's output records.
type reply struct {
	out     outcome
	outputs []map[string]string
}

// instance is one set-up copy of a workload's inputs.
type instance struct {
	ops []op
	// reference computes the expected outputs the ops check against. It
	// runs once, outside every timed phase.
	reference func() error
	close     func()
	spans     setupSpans
	genMB     float64 // size of the generated input
}

// setupSpans are the wall times of the set-up's calls into each layer.
type setupSpans struct {
	gen   float64 // workload.Generate*
	write float64 // dfs.FS.Write
	start float64 // cluster.StartLocal
}

// workloadDef names a workload and builds its inputs from a seed. Why
// each exists is in BENCHMARK.json and README.md.
type workloadDef struct {
	name  string
	setup func(seed int64, sz size) (*instance, error)
}

var workloads = []workloadDef{
	{"paper-sim", setupPaperSim},
	{"job-storm", setupJobStorm},
	{"testbed-mr", setupTestbed},
	{"loopback-cluster", setupLoopback},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// outcome is the virtual (simulated-clock) result of one op: everything
// the digest covers. Host time never enters it.
type outcome struct {
	makespan    float64
	bytesMoved  float64
	wastedBytes float64
	jobs        []jobOutcome
	repair      *runtime.RepairStats
}

type jobOutcome struct {
	submit, firstLaunch, finish float64
	tasks, reduces              int
}

func outcomeOf(makespan, moved, wasted float64, jobs []runtime.JobResult, rs *runtime.RepairStats) outcome {
	o := outcome{makespan: makespan, bytesMoved: moved, wastedBytes: wasted, repair: rs}
	for i := range jobs {
		j := &jobs[i]
		o.jobs = append(o.jobs, jobOutcome{j.SubmitTime, j.FirstMapLaunch, j.FinishTime, len(j.Tasks), len(j.Reduces)})
	}
	return o
}

// checkFinished reports an error unless every one of the want jobs ran
// to completion with a finite finish time.
func checkFinished(o outcome, want int) error {
	if len(o.jobs) != want {
		return fmt.Errorf("%d of %d jobs reported", len(o.jobs), want)
	}
	for i, j := range o.jobs {
		if !(j.finish > 0) || math.IsInf(j.finish, 0) || j.finish > o.makespan {
			return fmt.Errorf("job %d did not finish (finish %v, makespan %v)", i, j.finish, o.makespan)
		}
	}
	return nil
}

// simOp runs one mapred simulation; the check requires every job to
// finish, plus the extra check when one is given.
func simOp(name string, cfg mapred.Config, jobs []mapred.JobSpec, extra func(outcome) error) op {
	return op{name: name, layer: "mapred",
		call: func(ctx context.Context, sink trace.Sink) (reply, error) {
			c := cfg
			c.Trace = sink
			res, err := mapred.RunContext(ctx, c, jobs)
			if err != nil {
				return reply{}, err
			}
			return reply{out: outcomeOf(res.Makespan, res.BytesMoved, res.WastedBytes, res.Jobs, res.Repair)}, nil
		},
		check: func(r reply) error {
			if err := checkFinished(r.out, len(jobs)); err != nil {
				return err
			}
			if extra != nil {
				return extra(r.out)
			}
			return nil
		}}
}

// reportReply converts a real-bytes engine report.
func reportReply(rep *minimr.Report) reply {
	return reply{
		out:     outcomeOf(rep.Makespan, rep.BytesMoved, rep.WastedBytes, rep.Jobs, rep.Repair),
		outputs: rep.Outputs,
	}
}

// setupPaperSim builds the §V default scenario (40 nodes, 4 racks,
// (20,15) code, single-node failure) under LF, BDF and EDF at the two
// ends of fig7e's shuffle sweep, plus one healer variant: a mid-run
// failure at t=10 s, the healer at 25% of a link, and k+1 hedged reads.
func setupPaperSim(seed int64, sz size) (*instance, error) {
	inst := &instance{}
	// Every op draws its own placement, failure and task times, so that
	// a round averages over several cluster states rather than one.
	opSeed := func() int64 { return seed*64 + int64(len(inst.ops)) }
	scheds := []sched.Kind{mapred.LF, mapred.BDF, mapred.EDF}
	for _, sh := range []struct {
		label  string
		ratio  float64
		blocks int
	}{{"1%", 0.01, sz.simBlocks}, {"30%", 0.30, sz.simHotBlocks}} {
		for _, k := range scheds {
			cfg := mapred.DefaultConfig()
			cfg.NumBlocks = sh.blocks
			cfg.Scheduler = k
			cfg.Seed = opSeed()
			job := mapred.DefaultJob()
			job.ShuffleRatio = sh.ratio
			inst.ops = append(inst.ops, simOp(fmt.Sprintf("%v/shuffle%s", k, sh.label), cfg, []mapred.JobSpec{job}, nil))
		}
	}
	cfg := mapred.DefaultConfig()
	cfg.NumBlocks = sz.simBlocks
	cfg.Scheduler = mapred.EDF
	cfg.Seed = opSeed()
	cfg.FailAt = 10
	cfg.Repair = repair.Config{Enabled: true, RateFraction: 0.25}
	cfg.Hedge = runtime.HedgePolicy{Extra: 1}
	inst.ops = append(inst.ops, simOp("EDF/healer25%/hedge1", cfg, []mapred.JobSpec{mapred.DefaultJob()},
		func(o outcome) error {
			if o.repair == nil || o.repair.BlocksRepaired == 0 {
				return fmt.Errorf("healer repaired nothing")
			}
			return nil
		}))
	inst.reference = func() error { return nil }
	inst.close = func() {}
	return inst, nil
}

// stormPolicies are the job-level policies job-storm runs, all with EDF
// task placement.
var stormPolicies = []jobsched.Kind{jobsched.Fifo, jobsched.FairShare, jobsched.Quota, jobsched.Deadline}

// setupJobStorm generates three-tenant storms of small jobs on an 8-node
// (4,2) cluster and runs each storm under every job-level policy. The
// quota policy's cost grows with its backlog. Each tenant offers either
// well above or well below its 4-slot quota (about 12, 6 and 2 busy slots
// on average), so the backlog does not hinge on a tenant at the edge of
// its quota; and a round runs several storms drawn from different seeds.
func setupJobStorm(seed int64, sz size) (*instance, error) {
	inst := &instance{}
	tpl := mapred.DefaultJob()
	tpl.NumBlocks = 4
	tpl.MapTime = mapred.Dist{Mean: 3, Std: 0.3}
	tpl.ReduceTime = mapred.Dist{Mean: 2, Std: 0.2}
	tpl.NumReduceTasks = 1
	tpl.ShuffleRatio = 0.05
	start := now()
	storms := make([][]mapred.JobSpec, sz.storms)
	for i := range storms {
		jobs, err := workload.GenerateStorm(workload.StormOptions{
			NumJobs: sz.stormJobs,
			Tenants: []workload.TenantSpec{
				{Name: "alpha", Weight: 4, Share: 0.6},
				{Name: "beta", Weight: 2, Share: 0.3},
				{Name: "gamma", Weight: 1, Share: 0.1},
			},
			MeanInterArrival: 0.5,
			Template:         tpl,
			VaryBlocks:       4,
			DeadlineSlack:    60,
			Seed:             seed*64 + int64(i),
		})
		if err != nil {
			return nil, err
		}
		storms[i] = jobs
	}
	inst.spans.gen = since(start)

	for i, jobs := range storms {
		for _, p := range stormPolicies {
			cfg := mapred.DefaultConfig()
			cfg.Nodes, cfg.Racks = 8, 2
			cfg.N, cfg.K = 4, 2
			cfg.NumBlocks = 64
			cfg.BlockSizeBytes = 16e6
			cfg.RackBps = netsim.Gbps
			cfg.Scheduler = mapred.EDF
			cfg.JobSched = jobsched.Config{Policy: p, QuotaSlots: 4}
			cfg.Seed = seed*64 + int64(i)
			inst.ops = append(inst.ops, simOp(fmt.Sprintf("%v/storm%d", p, i), cfg, jobs, nil))
		}
	}
	inst.reference = func() error { return nil }
	inst.close = func() {}
	return inst, nil
}

// testbed is the §VI input: a (12,10)-coded DFS on 12 nodes in 3 racks
// holding a block-aligned Zipf corpus, with one node failed.
type testbed struct {
	fs     *dfs.FS
	corpus []byte
}

const grepWord = "whale"

// buildTestbed generates the corpus and writes it through the DFS,
// recording each call's wall time in spans.
func buildTestbed(seed int64, blocks int, spans *setupSpans) (*testbed, error) {
	clu, err := topology.New(topology.Config{Nodes: 12, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
	if err != nil {
		return nil, err
	}
	fs, err := dfs.New(clu, erasure.MustNew(12, 10), minimr.TestbedBlockSize, placement.RoundRobin{}, stats.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	start := now()
	corpus, err := workload.GenerateBlockAlignedCorpus(blocks, minimr.TestbedBlockSize, seed)
	if err != nil {
		return nil, err
	}
	spans.gen = since(start)
	start = now()
	if _, err := fs.Write("input.txt", corpus); err != nil {
		return nil, err
	}
	spans.write = since(start)
	clu.FailNode(topology.NodeID(stats.NewRNG(seed).Intn(clu.NumNodes())))
	return &testbed{fs: fs, corpus: corpus}, nil
}

func engineOptions(seed int64, k sched.Kind) minimr.Options {
	return minimr.Options{Scheduler: k, RackBps: minimr.TestbedRackBps, Seed: seed}
}

// groundTruth returns the expected output of each testbed job kind,
// computed directly from the corpus.
func groundTruth(corpus []byte) map[string]map[string]string {
	return map[string]map[string]string{
		"wordcount": asStrings(workload.CountWords(corpus)),
		"grep":      asStrings(workload.GrepLines(corpus, grepWord)),
		"linecount": asStrings(workload.CountLines(corpus)),
	}
}

func asStrings(counts map[string]int) map[string]string {
	out := make(map[string]string, len(counts))
	for k, v := range counts {
		out[k] = strconv.Itoa(v)
	}
	return out
}

// sameOutput reports where got differs from want.
func sameOutput(got, want map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d output keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return fmt.Errorf("key %q = %q, want %q", k, g, v)
		}
	}
	return nil
}

// testbedKinds is the multi-job of the testbed, in submission order.
var testbedKinds = []string{"wordcount", "grep", "linecount"}

// testbedJob builds the in-process job a testbed spec names.
func testbedJob(kind string, submitAt float64) minimr.Job {
	var j minimr.Job
	switch kind {
	case "wordcount":
		j = minimr.WordCountJob("input.txt", 8)
	case "grep":
		j = minimr.GrepJob("input.txt", grepWord, 8)
	default:
		j = minimr.LineCountJob("input.txt", 8)
	}
	j.SubmitAt = submitAt
	return j
}

func testbedSpec(kind string, submitAt float64) cluster.JobSpec {
	spec := cluster.JobSpec{Kind: kind, Input: "input.txt", NumReducers: 8, SubmitAt: submitAt}
	if kind == "grep" {
		spec.Word = grepWord
	}
	return spec
}

// setupTestbed builds the testbed and runs WordCount, Grep and LineCount
// as one multi-job on real bytes, under LF and under EDF.
func setupTestbed(seed int64, sz size) (*instance, error) {
	inst := &instance{}
	tb, err := buildTestbed(seed, sz.testbedBlocks, &inst.spans)
	if err != nil {
		return nil, err
	}
	inst.genMB = float64(len(tb.corpus)) / 1e6
	var want map[string]map[string]string
	inst.reference = func() error {
		want = groundTruth(tb.corpus)
		return nil
	}
	for _, k := range []sched.Kind{sched.KindLF, sched.KindEDF} {
		k := k
		inst.ops = append(inst.ops, op{name: k.String() + "/multijob", layer: "minimr",
			call: func(ctx context.Context, sink trace.Sink) (reply, error) {
				jobs := make([]minimr.Job, len(testbedKinds))
				for i, kind := range testbedKinds {
					jobs[i] = testbedJob(kind, float64(i))
				}
				opts := engineOptions(seed, k)
				opts.Trace = sink
				rep, err := minimr.RunContext(ctx, tb.fs, opts, jobs)
				if err != nil {
					return reply{}, err
				}
				return reportReply(rep), nil
			},
			check: func(r reply) error {
				if err := checkFinished(r.out, len(testbedKinds)); err != nil {
					return err
				}
				for i, kind := range testbedKinds {
					if err := sameOutput(r.outputs[i], want[kind]); err != nil {
						return fmt.Errorf("%s output: %w", kind, err)
					}
				}
				return nil
			}})
	}
	inst.close = func() {}
	return inst, nil
}

// loopbackScheduler is the task scheduler of the loopback cluster.
const loopbackScheduler = sched.KindEDF

// setupLoopback builds the testbed and starts a master plus one worker
// per alive node over loopback TCP. Each op submits one testbed job.
func setupLoopback(seed int64, sz size) (*instance, error) {
	inst := &instance{}
	tb, err := buildTestbed(seed, sz.clusterBlocks, &inst.spans)
	if err != nil {
		return nil, err
	}
	inst.genMB = float64(len(tb.corpus)) / 1e6
	// The sink is fixed when the cluster starts, so ops switch tracing
	// on and off through this indirection.
	sw := &switchSink{}
	start := now()
	l, err := cluster.StartLocal(tb.fs, cluster.MasterOptions{
		// A generous liveness deadline: nothing fails on purpose, and a
		// busy 2-CPU host can stall the process for a while.
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  50,
		Engine: func() minimr.Options {
			o := engineOptions(seed, loopbackScheduler)
			o.Trace = sw
			return o
		}(),
	}, cluster.WorkerOptions{})
	if err != nil {
		return nil, err
	}
	inst.spans.start = since(start)
	inst.close = l.Close

	truth := map[string]map[string]string{}
	inProcess := map[string]reply{}
	inst.reference = func() error {
		truth = groundTruth(tb.corpus)
		for _, kind := range testbedKinds {
			rep, err := minimr.Run(tb.fs, engineOptions(seed, loopbackScheduler), []minimr.Job{testbedJob(kind, 0)})
			if err != nil {
				return fmt.Errorf("in-process %s: %w", kind, err)
			}
			inProcess[kind] = reportReply(rep)
		}
		return nil
	}
	for _, kind := range testbedKinds {
		kind := kind
		inst.ops = append(inst.ops, op{name: kind, layer: "cluster",
			call: func(ctx context.Context, sink trace.Sink) (reply, error) {
				sw.set(sink)
				defer sw.set(nil)
				rep, err := l.Run(ctx, []cluster.JobSpec{testbedSpec(kind, 0)})
				if err != nil {
					return reply{}, err
				}
				return reportReply(rep), nil
			},
			check: func(r reply) error {
				if err := checkFinished(r.out, 1); err != nil {
					return err
				}
				if err := sameOutput(r.outputs[0], truth[kind]); err != nil {
					return fmt.Errorf("output vs ground truth: %w", err)
				}
				ref := inProcess[kind]
				if err := sameOutput(r.outputs[0], ref.outputs[0]); err != nil {
					return fmt.Errorf("output vs in-process minimr: %w", err)
				}
				if !sameOutcome(r.out, ref.out) {
					return fmt.Errorf("virtual outcome differs from in-process minimr: makespan %v vs %v",
						r.out.makespan, ref.out.makespan)
				}
				return nil
			}})
	}
	return inst, nil
}
