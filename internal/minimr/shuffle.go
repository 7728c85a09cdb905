package minimr

import "slices"

// The real-bytes shuffle path, shared by the in-process engine and the
// cluster workers. A run is one map task's records for one reducer: the
// map side splits a task's output into runs (MapBuffer), the reduce side
// keeps the runs it receives, in order, and groups them by key without
// concatenating them (GroupReduce).

// MapBuffer collects one map task's emitted records and splits them into
// per-reducer runs. It is reused from task to task, so each engine or
// worker goroutine needs its own; it is not safe for concurrent use.
type MapBuffer struct {
	kvs  []KeyValue
	pids []int32
}

// Map runs fn over data and partitions its output over numR > 0
// reducers with PartitionOf. runs[p] holds reducer p's records in emit
// order; all runs share one exact-size backing array, each capped at its
// own length. bytes[p] is the shuffle volume of runs[p], every record
// counting len(key)+len(value)+2, summed in emit order.
func (m *MapBuffer) Map(fn Mapper, data []byte, numR int) (runs [][]KeyValue, bytes []float64) {
	m.kvs, m.pids = m.kvs[:0], m.pids[:0]
	fn(data, func(k, v string) {
		m.kvs = append(m.kvs, KeyValue{Key: k, Value: v})
		m.pids = append(m.pids, int32(PartitionOf(k, numR)))
	})

	bytes = make([]float64, numR)
	next := make([]int, numR+1) // counts, then each run's next free slot
	for i, p := range m.pids {
		next[p+1]++
		kv := &m.kvs[i]
		bytes[p] += float64(len(kv.Key) + len(kv.Value) + 2)
	}
	for p := 1; p <= numR; p++ {
		next[p] += next[p-1]
	}
	all := make([]KeyValue, len(m.kvs))
	runs = make([][]KeyValue, numR)
	for p := range runs {
		runs[p] = all[next[p]:next[p+1]:next[p+1]]
	}
	for i, p := range m.pids {
		all[next[p]] = m.kvs[i]
		next[p]++
	}
	// Drop the strings so the buffer does not keep this task's output
	// alive after its runs are gone.
	clear(m.kvs)
	return runs, bytes
}

// GroupReduce calls reduce once per distinct key of runs, in ascending
// key order, with the key's values in run order and, within a run, in
// record order — the grouping of the concatenated runs, without
// concatenating them. Each values slice is capped at its length, so a
// reducer that appends to it cannot overwrite another key's values.
func GroupReduce(runs [][]KeyValue, reduce Reducer, emit func(k, v string)) {
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	if total == 0 {
		return
	}
	// Counting sort: a group id per record (one map lookup each), the
	// size of every group, then each value at its group's next offset.
	ids := make(map[string]int32)
	var keys []string
	var next []int32 // group sizes, then each group's next free slot
	gid := make([]int32, 0, total)
	for _, run := range runs {
		for i := range run {
			g, ok := ids[run[i].Key]
			if !ok {
				g = int32(len(keys))
				ids[run[i].Key] = g
				keys = append(keys, run[i].Key)
				next = append(next, 0)
			}
			next[g]++
			gid = append(gid, g)
		}
	}
	start := make([]int32, len(keys)+1)
	for g, n := range next {
		start[g+1] = start[g] + n
		next[g] = start[g]
	}
	values := make([]string, total)
	r := 0
	for _, run := range runs {
		for i := range run {
			g := gid[r]
			values[next[g]] = run[i].Value
			next[g]++
			r++
		}
	}

	slices.Sort(keys)
	for _, k := range keys {
		g := ids[k]
		lo, hi := start[g], start[g+1]
		reduce(k, values[lo:hi:hi], emit)
	}
}
