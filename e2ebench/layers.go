package main

import "degradedfirst/internal/trace"

// cpuLayers are the layers CPU time is attributed to: the repository's
// packages that the workloads run, Go's GC and allocator, the benchmark
// itself, and everything else. A sample in another package of the
// repository counts as other.
var cpuLayers = []string{
	"sim", "netsim", "sched", "jobsched", "runtime", "repair", "workload",
	"dfs", "gf256", "erasure", "mapred", "minimr", "cluster", "placement",
	"topology", "stats", "trace", layerGC, layerBench, layerOther,
}

func cpuFracName(layer string) string {
	if layer == layerGC {
		return "go.gc_cpu_frac"
	}
	return layer + ".cpu_frac"
}

// perLayerMetrics lists every per-layer metric with its unit, in report
// order. Counts come from the trace stream of one round and repeat
// exactly for a fixed seed; times are medians over the traced rounds.
var perLayerMetrics = func() [][2]string {
	var out [][2]string
	for _, l := range cpuLayers {
		out = append(out, [2]string{cpuFracName(l), "fraction"})
	}
	return append(out, [][2]string{
		{"go.gc_cpu_s", "s"},
		{"go.alloc_mb", "MB"},
		{"go.gc_cycles", "count"},
		{"go.mutex_wait_s", "s"},
		{"go.sched_latency_p90_us", "us"},
		{"netsim.flows", "count"},
		{"netsim.flow_cancels", "count"},
		{"netsim.gb_moved", "GB"},
		{"netsim.us_per_flow", "us"},
		{"jobsched.grants", "count"},
		{"jobsched.queued", "count"},
		{"runtime.heartbeats", "count"},
		{"runtime.task_launches", "count"},
		{"runtime.task_requeues", "count"},
		{"runtime.degraded_reads", "count"},
		{"runtime.hedge_useful_ratio", "ratio"},
		{"repair.stripes_done", "count"},
		{"repair.useful_ratio", "ratio"},
		{"workload.gen_s", "s"},
		{"workload.gen_mb", "MB"},
		{"dfs.write_s", "s"},
		{"dfs.write_mb_per_s", "MB/s"},
		{"mapred.run_s", "s"},
		{"mapred.runs", "count"},
		{"minimr.run_s", "s"},
		{"minimr.jobs", "count"},
		{"cluster.start_s", "s"},
		{"cluster.job_s", "s"},
		{"cluster.wire_msgs", "count"},
		{"cluster.wire_payload_mb", "MB"},
		{"cluster.io_mb", "MB"},
		{"cluster.io_per_payload", "ratio"},
		{"trace.events", "count"},
		{"trace.overhead_frac", "fraction"},
		{"ops.failed_frac", "fraction"},
		{"host.steal_frac", "fraction"},
	}...)
}()

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (r *result) perLayer() ([]string, map[string]metric) {
	v := map[string]float64{}

	// CPU shares from the profile; layers outside cpuLayers fold into other.
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	for l, cpu := range r.cpuShares {
		if !known[l] {
			l = layerOther
		}
		v[cpuFracName(l)] += ratio(cpu, r.cpuTotal)
	}

	tr := r.tracedR
	v["go.gc_cpu_s"] = medianOf(tr, func(rs roundStats) float64 { return rs.goAfter.gcCPU - rs.goBefore.gcCPU })
	v["go.alloc_mb"] = medianOf(tr, func(rs roundStats) float64 { return (rs.goAfter.allocBytes - rs.goBefore.allocBytes) / 1e6 })
	v["go.gc_cycles"] = medianOf(tr, func(rs roundStats) float64 { return rs.goAfter.gcCycles - rs.goBefore.gcCycles })
	v["go.mutex_wait_s"] = medianOf(tr, func(rs roundStats) float64 { return rs.goAfter.mutexWait - rs.goBefore.mutexWait })
	v["go.sched_latency_p90_us"] = medianOf(tr, func(rs roundStats) float64 {
		return 1e6 * schedLatencyQuantile(rs.goBefore.schedLat, rs.goAfter.schedLat, 0.9)
	})

	// Exact counts of the check round.
	count := func(t trace.Type) float64 {
		n := 0
		for _, c := range r.baseline {
			n += c.count(t)
		}
		return float64(n)
	}
	var moved, wasted, events, wireMsgs, wireBytes float64
	for _, o := range r.outcomes {
		moved += o.bytesMoved
		wasted += o.wastedBytes
	}
	for _, c := range r.baseline {
		n, wire, b := c.totals()
		events += float64(n)
		wireMsgs += float64(wire)
		wireBytes += b
	}
	flows := count(trace.EvTransferStart)
	roundCPU := medianOf(tr, func(rs roundStats) float64 { return rs.cpu })
	v["netsim.flows"] = flows
	v["netsim.flow_cancels"] = count(trace.EvTransferCancel)
	v["netsim.gb_moved"] = moved / 1e9
	v["netsim.us_per_flow"] = 1e6 * ratio(v["netsim.cpu_frac"]*roundCPU, flows)
	v["jobsched.grants"] = count(trace.EvJobGrant)
	v["jobsched.queued"] = count(trace.EvJobQueued)
	v["runtime.heartbeats"] = count(trace.EvHeartbeat)
	v["runtime.task_launches"] = count(trace.EvTaskLaunch)
	v["runtime.task_requeues"] = count(trace.EvTaskRequeue)
	v["runtime.degraded_reads"] = count(trace.EvDegradedPlan)
	v["runtime.hedge_useful_ratio"] = ratio(moved, moved+wasted)
	v["repair.stripes_done"] = count(trace.EvRepairDone)
	v["repair.useful_ratio"] = ratio(count(trace.EvRepairDone), count(trace.EvRepairLaunch))

	// Set-up spans: medians over the set-ups.
	span := func(f func(setupSpans) float64) float64 {
		xs := make([]float64, len(r.spans))
		for i, sp := range r.spans {
			xs[i] = f(sp)
		}
		return median(xs)
	}
	v["workload.gen_s"] = span(func(sp setupSpans) float64 { return sp.gen })
	v["workload.gen_mb"] = r.genMB
	v["dfs.write_s"] = span(func(sp setupSpans) float64 { return sp.write })
	v["dfs.write_mb_per_s"] = ratio(r.genMB, v["dfs.write_s"])
	v["cluster.start_s"] = span(func(sp setupSpans) float64 { return sp.start })

	// Entry-point spans of the traced rounds.
	layerOps := map[string]float64{}
	var minimrJobs int
	for i, o := range r.ops {
		layerOps[o.layer]++
		if o.layer == "minimr" {
			minimrJobs += len(r.outcomes[i].jobs)
		}
	}
	v["mapred.run_s"] = medianOf(tr, func(rs roundStats) float64 { return rs.layerWall["mapred"] })
	v["mapred.runs"] = layerOps["mapred"]
	v["minimr.run_s"] = medianOf(tr, func(rs roundStats) float64 { return rs.layerWall["minimr"] })
	v["minimr.jobs"] = float64(minimrJobs)
	v["cluster.job_s"] = medianOf(tr, func(rs roundStats) float64 { return rs.layerWall["cluster"] })

	v["cluster.wire_msgs"] = wireMsgs
	v["cluster.wire_payload_mb"] = wireBytes / 1e6
	if layerOps["cluster"] > 0 {
		v["cluster.io_mb"] = medianOf(tr, func(rs roundStats) float64 { return rs.ioBytes / 1e6 })
		v["cluster.io_per_payload"] = ratio(v["cluster.io_mb"], v["cluster.wire_payload_mb"])
	}

	v["trace.events"] = events
	v["trace.overhead_frac"] = ratio(medianOf(tr, func(rs roundStats) float64 { return rs.wall }),
		medianOf(r.untraced, func(rs roundStats) float64 { return rs.wall })) - 1
	v["ops.failed_frac"] = r.failedFrac()
	v["host.steal_frac"] = r.stealFrac
	return fill(perLayerMetrics, v)
}
