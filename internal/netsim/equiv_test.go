package netsim

// Equivalence harness pinning the incremental solver (completion events
// moved in place by sim.Engine.Reschedule) + batched admission against the
// reference configuration (RefRecompute, which cancels every completion
// event and schedules a new one, + one StartFlow per transfer). The two
// worlds must produce bitwise-identical completion schedules, rate
// allocations, and byte accounting for arbitrary interleavings of flow
// arrivals, batch arrivals, and cancellations — which also pins that a
// Reschedule is indistinguishable from a Cancel followed by a Schedule.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"degradedfirst/internal/sim"
	"degradedfirst/internal/topology"
)

type flowSpec struct {
	src, dst topology.NodeID
	bytes    float64
}

type scenarioOp struct {
	at     float64
	batch  []flowSpec // non-empty: start these flows; empty: cancel
	victim int        // cancel target, index into flows started so far
}

// equivCluster is the legacy scenario cluster: 12 nodes over 3 racks.
func equivCluster() *topology.Cluster {
	return topology.MustNew(topology.Config{Nodes: 12, Racks: 3, MapSlotsPerNode: 1})
}

// equivFatTree is the multi-tier scenario cluster: 12 nodes in a 2-pod
// fat tree with oversubscribed edge and pod tiers and a finite core, so
// every tier's links can saturate.
func equivFatTree() *topology.Cluster {
	spec, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 2, EdgesPerPod: 2, NodesPerEdge: 3,
		NodeBps: 200 * Mbps, EdgeOversub: 4, PodOversub: 2, CoreBps: 150 * Mbps,
	})
	if err != nil {
		panic(err)
	}
	c, err := topology.NewFromSpec(spec, 1, 1)
	if err != nil {
		panic(err)
	}
	return c
}

// equivWorld picks one of six scenario worlds: four legacy two-level
// network shapes (finite and unlimited NICs, a finite core, and
// exclusive-hold mode) plus the fat-tree cluster in both contention
// modes, exercising the multi-tier link graph.
func equivWorld(sel byte) (*topology.Cluster, Config) {
	switch sel % 6 {
	case 0:
		return equivCluster(), Config{RackBps: 100 * Mbps, NodeBps: 200 * Mbps}
	case 1:
		return equivCluster(), Config{RackBps: 100 * Mbps} // unlimited NICs
	case 2:
		return equivCluster(), Config{RackBps: 120 * Mbps, NodeBps: 150 * Mbps, CoreBps: 200 * Mbps}
	case 3:
		return equivCluster(), Config{RackBps: 100 * Mbps, NodeBps: 200 * Mbps, Mode: ExclusiveHold}
	case 4:
		return equivFatTree(), Config{} // capacities from the spec
	default:
		return equivFatTree(), Config{Mode: ExclusiveHold}
	}
}

// decodeOps turns fuzz bytes into a scenario: each 4-byte group is one
// op. Zero-byte flows, node-local flows, same-instant ops, and cancels of
// arbitrary (possibly finished) flows are all reachable on purpose.
func decodeOps(data []byte) []scenarioOp {
	var ops []scenarioOp
	at := 0.0
	for i := 0; i+4 <= len(data) && len(ops) < 64; i += 4 {
		kind, a, b, dt := data[i], data[i+1], data[i+2], data[i+3]
		at += float64(dt%8) * 0.35 // %8==0 keeps the next op at the same instant
		switch kind % 4 {
		case 0, 1: // single-flow start
			ops = append(ops, scenarioOp{at: at, batch: []flowSpec{specFrom(a, b)}})
		case 2: // batch start (fan-in/fan-out burst)
			k := int(a%5) + 2
			batch := make([]flowSpec, k)
			for j := range batch {
				batch[j] = specFrom(a+byte(j*41), b+byte(j*17))
			}
			ops = append(ops, scenarioOp{at: at, batch: batch})
		case 3: // cancel
			ops = append(ops, scenarioOp{at: at, victim: int(a)})
		}
	}
	return ops
}

func specFrom(a, b byte) flowSpec {
	return flowSpec{
		src:   topology.NodeID(a % 12),
		dst:   topology.NodeID((a / 12) % 12),
		bytes: float64(b%16) * 2.5e6, // includes zero-byte flows
	}
}

// runScenario executes ops on a fresh engine+net and returns an exact
// fingerprint of everything observable: per-flow completion times (bits),
// post-op rate snapshots (bits), flow counts, and bytes moved.
func runScenario(ops []scenarioOp, c *topology.Cluster, cfg Config, solver Solver, batched bool) (finishes []string, snaps []string, bytesMoved float64) {
	eng := sim.New()
	n, err := New(eng, c, cfg)
	if err != nil {
		panic(err)
	}
	n.SetSolver(solver)
	var created []*Flow
	type fin struct {
		id int
		at sim.Time
	}
	var fins []fin
	for _, op := range ops {
		op := op
		eng.ScheduleAt(op.at, func() {
			if len(op.batch) == 0 {
				if len(created) > 0 {
					n.Cancel(created[op.victim%len(created)])
				}
			} else if batched {
				reqs := make([]FlowReq, len(op.batch))
				for i, s := range op.batch {
					reqs[i] = FlowReq{Src: s.src, Dst: s.dst, Bytes: s.bytes,
						Done: func(f *Flow) { fins = append(fins, fin{f.ID, eng.Now()}) }}
				}
				created = append(created, n.StartFlows(reqs)...)
			} else {
				for _, s := range op.batch {
					created = append(created, n.StartFlow(s.src, s.dst, s.bytes,
						func(f *Flow) { fins = append(fins, fin{f.ID, eng.Now()}) }))
				}
			}
		})
		// Snapshot at an off-grid instant (ops land on multiples of 0.35)
		// so every same-instant cascade has settled: mid-instant rates are
		// transient — e.g. a zero-byte batch member contends until its
		// dt=0 completion fires later in the same instant — and never
		// govern any progress, so only quiescent state must match.
		eng.ScheduleAt(op.at+0.175, func() {
			snap := fmt.Sprintf("t=%x n=%d/%d:", math.Float64bits(eng.Now()), n.ActiveFlows(), n.WaitingFlows())
			for _, f := range created {
				if f.Finished() {
					snap += fmt.Sprintf(" %d:done", f.ID)
				} else {
					snap += fmt.Sprintf(" %d:%x", f.ID, math.Float64bits(f.Rate()))
				}
			}
			snaps = append(snaps, snap)
		})
	}
	eng.Run()
	// In exclusive-hold mode same-instant finish order may legitimately
	// differ between batched and sequential admission (a batch admits
	// every flow before dispatching, so immediate completions and hold
	// dispatches swap sequence numbers), so normalize equal-time finishes
	// by flow ID there. The times themselves must match bit-for-bit. In
	// fluid mode every solve gives each flow a fresh sequence number in
	// flow order under both admission styles, so the raw dispatch order —
	// ties included — must match too.
	if cfg.Mode == ExclusiveHold {
		sort.SliceStable(fins, func(i, j int) bool {
			if fins[i].at != fins[j].at {
				return fins[i].at < fins[j].at
			}
			return fins[i].id < fins[j].id
		})
	}
	for _, x := range fins {
		finishes = append(finishes, fmt.Sprintf("%d@%x", x.id, math.Float64bits(x.at)))
	}
	return finishes, snaps, n.BytesMoved
}

// checkEquivalence runs the optimized and reference worlds over the same
// scenario and reports the first divergence.
func checkEquivalence(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		return
	}
	cluster, cfg := equivWorld(data[0])
	ops := decodeOps(data[1:])
	gotFin, gotSnap, gotBytes := runScenario(ops, cluster, cfg, IncrementalSolver, true)
	wantFin, wantSnap, wantBytes := runScenario(ops, cluster, cfg, ReferenceSolver, false)
	if gotBytes != wantBytes {
		t.Fatalf("BytesMoved diverged: incremental=%v reference=%v (cfg %+v)", gotBytes, wantBytes, cfg)
	}
	if len(gotFin) != len(wantFin) {
		t.Fatalf("finish count diverged: %d vs %d (cfg %+v)", len(gotFin), len(wantFin), cfg)
	}
	for i := range gotFin {
		if gotFin[i] != wantFin[i] {
			t.Fatalf("finish %d diverged: incremental %s, reference %s (cfg %+v)", i, gotFin[i], wantFin[i], cfg)
		}
	}
	for i := range gotSnap {
		if gotSnap[i] != wantSnap[i] {
			t.Fatalf("snapshot %d diverged:\nincremental: %s\nreference:   %s\n(cfg %+v)", i, gotSnap[i], wantSnap[i], cfg)
		}
	}
}

// TestIncrementalMatchesReference drives many deterministic pseudo-random
// scenarios through checkEquivalence — the always-on version of the
// fuzzer below.
func TestIncrementalMatchesReference(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return byte(rng)
	}
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 1+4*40)
		for i := range data {
			data[i] = next()
		}
		data[0] = byte(trial) // sweep all six scenario worlds
		checkEquivalence(t, data)
	}
}

// TestBatchedStartMatchesSequential pins the StartFlows contract directly:
// same IDs and completion schedule as one StartFlow per request, holding
// engine and solver fixed.
func TestBatchedStartMatchesSequential(t *testing.T) {
	ops := []scenarioOp{
		{at: 0, batch: []flowSpec{{0, 4, 10e6}, {1, 4, 20e6}, {5, 4, 10e6}, {4, 4, 1e6}, {8, 4, 0}}},
		{at: 1.5, batch: []flowSpec{{9, 2, 30e6}, {10, 2, 30e6}}},
	}
	for _, cfg := range []Config{
		{RackBps: 100 * Mbps, NodeBps: 200 * Mbps},
		{RackBps: 100 * Mbps, Mode: ExclusiveHold},
	} {
		batFin, _, batBytes := runScenario(ops, equivCluster(), cfg, IncrementalSolver, true)
		seqFin, _, seqBytes := runScenario(ops, equivCluster(), cfg, IncrementalSolver, false)
		if batBytes != seqBytes || len(batFin) != len(seqFin) {
			t.Fatalf("cfg %+v: batched run diverged in volume/count", cfg)
		}
		for i := range batFin {
			if batFin[i] != seqFin[i] {
				t.Fatalf("cfg %+v: finish %d: batched %s vs sequential %s", cfg, i, batFin[i], seqFin[i])
			}
		}
	}
}

// FuzzNetsimEquivalence explores arbitrary arrival/departure/cancel
// sequences. Any divergence between the incremental and reference worlds
// is a bug in the incremental solver, the engine's in-place rescheduling,
// or the batch admission path.
func FuzzNetsimEquivalence(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 7, 9, 0, 2, 30, 4, 1, 3, 1, 0, 0})
	f.Add([]byte{2, 2, 200, 15, 0, 2, 100, 3, 3, 0, 50, 200, 2, 3, 0, 0, 0})
	f.Add([]byte{3, 1, 13, 8, 4, 1, 26, 8, 0, 3, 0, 0, 1, 1, 40, 12, 7})
	f.Add([]byte{4, 0, 7, 9, 0, 2, 30, 4, 1, 1, 80, 11, 3, 3, 1, 0, 0})
	f.Add([]byte{5, 2, 200, 15, 0, 1, 100, 3, 3, 0, 50, 200, 2, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEquivalence(t, data)
	})
}
