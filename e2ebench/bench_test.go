package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"degradedfirst/internal/runtime"
	"degradedfirst/internal/trace"
)

func TestLayerOfStacks(t *testing.T) {
	repo := func(fn, file string) frame {
		return frame{fn: "degradedfirst/internal/" + fn, file: "/src/internal/" + file}
	}
	std := func(fn string) frame { return frame{fn: fn, file: "/go/src/" + fn} }
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"stdlib callee counts for its caller",
			[]frame{std("container/heap.down"), std("container/heap.Pop"), repo("sim.(*Engine).Run", "sim/engine.go")}, "sim"},
		{"json under the wire layer",
			[]frame{std("encoding/json.(*encodeState).marshal"), std("encoding/json.Marshal"), repo("cluster.(*rpcConn).send", "cluster/conn.go")}, "cluster"},
		{"map runtime under a package",
			[]frame{std("runtime.mapassign_faststr"), repo("minimr.(*realBackend).Execute.func1", "minimr/engine.go")}, "minimr"},
		{"allocation beats the allocating caller",
			[]frame{std("runtime.memclrNoHeapPointers"), std("runtime.mallocgc"), std("runtime.newobject"), repo("netsim.(*Net).StartFlows", "netsim/netsim.go")}, layerGC},
		{"background mark worker",
			[]frame{std("runtime.scanobject"), std("runtime.gcDrain"), std("runtime.gcBgMarkWorker")}, layerGC},
		{"write barrier",
			[]frame{std("runtime.wbBufFlush1"), std("runtime.gcWriteBarrier2"), repo("sim.(*Engine).ScheduleAt", "sim/engine.go")}, layerGC},
		{"closure inlined into another package keeps its source package",
			[]frame{std("bytes.Fields"), {fn: "degradedfirst/internal/cluster.BuildJob.WordCountJob.func1", file: "/src/internal/minimr/jobs.go"}}, "minimr"},
		{"name alone when the file is unknown",
			[]frame{{fn: "degradedfirst/internal/jobsched.(*Queue).MapOrder"}}, "jobsched"},
		{"stdlib internal packages are not repository packages",
			[]frame{std("internal/poll.(*FD).Read"), std("net.(*conn).Read"), repo("cluster.readFrame", "cluster/wire.go")}, "cluster"},
		{"benchmark code",
			[]frame{{fn: "main.(*countSink).Emit"}, repo("runtime.(*master).emit", "runtime/runtime.go")}, layerBench},
		{"scheduler idle",
			[]frame{std("runtime.futex"), std("runtime.findRunnable"), std("runtime.schedule")}, layerOther},
		{"no stack", nil, layerOther},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributeCheckSamples(t *testing.T) {
	sim := []frame{{fn: "degradedfirst/internal/sim.(*Engine).Run", file: "/src/internal/sim/engine.go"}}
	shares, total := attribute([]profileSample{
		{stack: sim, cpuNS: 3e9},
		{stack: sim, cpuNS: 1e9, check: true},
	})
	if total != 4 || shares["sim"] != 3 || shares[layerBench] != 1 {
		t.Fatalf("attribute = %v (total %v), want sim 3 s and bench 1 s of 4 s", shares, total)
	}
}

// TestDecodeProfile decodes a real profile of this process: samples taken
// inside checkPhase carry its label.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	var sink float64
	checkPhase(func() {
		for start := now(); since(start) < 0.4; {
			for i := 0; i < 1e5; i++ {
				sink += float64(i) * 1e-9
			}
		}
	})
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled int
	var withStack bool
	for _, s := range samples {
		if s.check {
			labelled++
		}
		withStack = withStack || len(s.stack) > 0
	}
	if labelled == 0 || !withStack {
		t.Fatalf("%d samples, %d labelled, stacks %v (sink %v)", len(samples), labelled, withStack, sink)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
}

func TestDigestStability(t *testing.T) {
	ops := []op{{name: "a"}, {name: "b"}}
	mk := func(makespan float64) []outcome {
		return []outcome{
			{makespan: makespan, bytesMoved: 1e9, jobs: []jobOutcome{{0, 1, makespan, 10, 2}}},
			{makespan: 7, repair: &runtime.RepairStats{BlocksRepaired: 3, FirstRepairAt: 1, AtRisk: []runtime.AtRiskPoint{{T: 1, Lost: 2}}}},
		}
	}
	counts := func(order []trace.Type) []*countSink {
		c := newCountSink()
		for _, typ := range order {
			c.Emit(trace.New(0, typ))
		}
		return []*countSink{c, newCountSink()}
	}
	base := digest(ops, mk(42), counts([]trace.Type{trace.EvHeartbeat, trace.EvTaskLaunch, trace.EvHeartbeat}))
	if again := digest(ops, mk(42), counts([]trace.Type{trace.EvHeartbeat, trace.EvHeartbeat, trace.EvTaskLaunch})); again != base {
		t.Fatalf("digest depends on event order: %s vs %s", base, again)
	}
	if wire := digest(ops, mk(42), counts([]trace.Type{trace.EvHeartbeat, trace.EvTaskLaunch, trace.EvHeartbeat, trace.EvWireFetch})); wire != base {
		t.Fatal("wire events, which run on the real clock, changed the digest")
	}
	if moved := digest(ops, mk(42.000000001), counts([]trace.Type{trace.EvHeartbeat, trace.EvTaskLaunch, trace.EvHeartbeat})); moved == base {
		t.Fatal("a different makespan kept the digest")
	}
	if fewer := digest(ops, mk(42), counts([]trace.Type{trace.EvHeartbeat, trace.EvTaskLaunch})); fewer == base {
		t.Fatal("a different event count kept the digest")
	}
	if !sameOutcome(mk(42)[1], mk(42)[1]) || sameOutcome(mk(42)[0], mk(43)[0]) {
		t.Fatal("sameOutcome disagrees with the digest")
	}
}

var tinySize = size{simBlocks: 60, simHotBlocks: 30, storms: 2, stormJobs: 40, testbedBlocks: 12, clusterBlocks: 12}

// TestSmokeAllWorkloads runs every workload at a tiny size, untraced and
// traced: no op may fail, and both runs must print the same digest.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				r, err := measure(w, 5, 0.01, traced, tinySize)
				if err != nil {
					t.Fatal(err)
				}
				if r.failed != 0 || r.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d ops failed: %v", traced, r.failed, r.attempted, r.failures)
				}
				var out bytes.Buffer
				if err := r.write(&out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var s summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
					t.Fatalf("last line is not the summary: %v", err)
				}
				defs := endToEndMetrics
				if traced {
					defs = perLayerMetrics
				}
				if !s.Correct || len(s.Metrics) != len(defs) {
					t.Fatalf("traced=%v: summary %+v", traced, s)
				}
				if !traced && (s.Metrics["run_s"].Value <= 0 || s.Metrics["setup_s"].Value <= 0) {
					t.Fatalf("non-positive times: %+v", s.Metrics)
				}
				digests = append(digests, r.digest)
			}
			if digests[0] != digests[1] {
				t.Fatalf("untraced digest %s, traced %s", digests[0], digests[1])
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []def
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want [][2]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

func TestFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "job-storm", "--trace", "2"},
		{"--workload", "job-storm", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with stdout %q, want a failure and no result", args, code, out.String())
		}
	}
}

func TestSchedLatencyQuantile(t *testing.T) {
	buckets := []float64{math.Inf(-1), 1, 2, math.Inf(1)}
	before := &metrics.Float64Histogram{Counts: []uint64{0, 3, 0}, Buckets: buckets}
	after := &metrics.Float64Histogram{Counts: []uint64{0, 8, 5}, Buckets: buckets}
	// Ten new samples, five in [1,2): the 0.4 quantile lies 80% into it.
	if got := schedLatencyQuantile(before, after, 0.4); math.Abs(got-1.8) > 1e-9 {
		t.Errorf("0.4 quantile = %v, want 1.8", got)
	}
	if got := schedLatencyQuantile(before, after, 0.9); got != 2 {
		t.Errorf("quantile in the unbounded bucket = %v, want its lower bound 2", got)
	}
	if got := schedLatencyQuantile(after, after, 0.9); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

// TestNowMoves guards the clock helpers every timing relies on.
func TestNowMoves(t *testing.T) {
	start := now()
	time.Sleep(time.Millisecond)
	if since(start) <= 0 || cpuSeconds() <= 0 {
		t.Fatal("clock or CPU time does not move")
	}
	if mb, err := peakRSSMB(); err != nil || mb <= 0 {
		t.Fatalf("peakRSSMB = %v, %v", mb, err)
	}
}
