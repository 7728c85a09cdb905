package minimr

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"degradedfirst/internal/runtime"
	"degradedfirst/internal/topology"
)

// groupReduceReference is the grouping GroupReduce replaces, kept as its
// oracle: concatenate the runs, collect each key's values in a map, sort
// the keys.
func groupReduceReference(runs [][]KeyValue, reduce Reducer, emit func(k, v string)) {
	var recs []KeyValue
	for _, run := range runs {
		recs = append(recs, run...)
	}
	grouped := make(map[string][]string)
	for _, kv := range recs {
		grouped[kv.Key] = append(grouped[kv.Key], kv.Value)
	}
	keys := make([]string, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		reduce(k, grouped[k], emit)
	}
}

// joinReducer is order-sensitive: its output spells out every value in
// the order it was handed, so a grouping that reorders values (not only
// one that loses them) changes it.
func joinReducer(key string, values []string, emit func(k, v string)) {
	emit(key, strings.Join(values, ","))
}

// reduceAll runs a grouping and returns what the reducer emitted, in
// emission order.
func reduceAll(group func([][]KeyValue, Reducer, func(k, v string)), runs [][]KeyValue, reduce Reducer) []KeyValue {
	var out []KeyValue
	group(runs, reduce, func(k, v string) { out = append(out, KeyValue{Key: k, Value: v}) })
	return out
}

// runSet is a random reduce input for testing/quick: zero or more runs,
// some empty, over a small key pool (so keys repeat within and across
// runs) that includes the empty key and non-UTF-8 keys. Every value
// names its run and position, so value order shows in joinReducer's
// output.
type runSet [][]KeyValue

var _keyPool = []string{"", "a", "b", "ab", "whale", "the", "\xff", "\xc3\x28", "a\x00b", "é"}

func (runSet) Generate(r *rand.Rand, size int) reflect.Value {
	runs := make(runSet, r.Intn(6))
	for i := range runs {
		n := r.Intn(size + 1)
		if r.Intn(4) == 0 {
			n = 0
		}
		for j := 0; j < n; j++ {
			runs[i] = append(runs[i], KeyValue{Key: _keyPool[r.Intn(len(_keyPool))], Value: fmt.Sprintf("%d.%d", i, j)})
		}
	}
	return reflect.ValueOf(runs)
}

func TestGroupReduceMatchesReference(t *testing.T) {
	check := func(runs runSet) bool {
		got := reduceAll(GroupReduce, runs, joinReducer)
		want := reduceAll(groupReduceReference, runs, joinReducer)
		if !reflect.DeepEqual(got, want) {
			t.Logf("runs %q: got %q, want %q", runs, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, runs := range []runSet{nil, {}, {nil}, {{}, nil}} {
		if !check(runs) {
			t.Fatalf("runs %q", runs)
		}
	}
}

// TestGroupReduceValuesAreCapped: a reducer may append to the values it
// is handed (and keep the slice); that must never write into another
// key's values.
func TestGroupReduceValuesAreCapped(t *testing.T) {
	runs := [][]KeyValue{
		{{"a", "1"}, {"b", "2"}, {"a", "3"}},
		{{"c", "4"}, {"b", "5"}},
	}
	kept := map[string][]string{}
	GroupReduce(runs, func(key string, values []string, emit func(k, v string)) {
		kept[key] = values
		values = append(values, "clobber")
		values[0] = values[0] + "!" // writes the caller's slot only if append grew in place
		emit(key, strings.Join(values, ","))
	}, func(string, string) {})
	want := map[string][]string{"a": {"1", "3"}, "b": {"2", "5"}, "c": {"4"}}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("values after appending reducers = %q, want %q", kept, want)
	}
}

// FuzzGroupReduce splits the input into runs at 0xFE bytes and into
// keys at 0xFF bytes, then compares GroupReduce with the reference under
// the order-sensitive reducer and under one that appends to its values.
func FuzzGroupReduce(f *testing.F) {
	f.Add([]byte("a\xffb\xffa\xfeb\xff\xffc\xfe\xfea"))
	f.Add([]byte{})
	f.Add([]byte("\xc3\x28\xff\xc3\x28\xfe\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var runs [][]KeyValue
		for i, rb := range bytes.Split(data, []byte{0xFE}) {
			run := []KeyValue{}
			if len(rb) > 0 {
				for j, kb := range bytes.Split(rb, []byte{0xFF}) {
					run = append(run, KeyValue{Key: string(kb), Value: fmt.Sprintf("%d.%d", i, j)})
				}
			}
			runs = append(runs, run)
		}
		appending := func(key string, values []string, emit func(k, v string)) {
			values = append(values, "x")
			joinReducer(key, values, emit)
		}
		for _, reduce := range []Reducer{joinReducer, appending} {
			got := reduceAll(GroupReduce, runs, reduce)
			want := reduceAll(groupReduceReference, runs, reduce)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("runs %q: got %q, want %q", runs, got, want)
			}
		}
	})
}

// TestMapBufferMatchesEmitOrderPartition compares MapBuffer with the
// partitioning it replaces: append each record to its reducer's slice
// and add its size to that reducer's total, in emit order. Runs must
// hold the same records, sizes must be bit-identical, and each run must
// be capped at its length. Reusing the buffer must leave earlier runs
// intact.
func TestMapBufferMatchesEmitOrderPartition(t *testing.T) {
	var buf MapBuffer
	var earlier [][]KeyValue
	var earlierCopy [][]KeyValue
	check := func(input runSet, r8 uint8) bool {
		numR := 1 + int(r8%9)
		var recs []KeyValue
		for _, run := range input {
			recs = append(recs, run...)
		}
		mapper := func(_ []byte, emit func(k, v string)) {
			for _, kv := range recs {
				emit(kv.Key, kv.Value)
			}
		}
		wantRuns := make([][]KeyValue, numR)
		wantBytes := make([]float64, numR)
		for _, kv := range recs {
			p := PartitionOf(kv.Key, numR)
			wantRuns[p] = append(wantRuns[p], kv)
			wantBytes[p] += float64(len(kv.Key) + len(kv.Value) + 2)
		}
		runs, sizes := buf.Map(mapper, nil, numR)
		if len(runs) != numR || len(sizes) != numR {
			t.Logf("got %d runs and %d sizes, want %d", len(runs), len(sizes), numR)
			return false
		}
		for p := range runs {
			if !slices.Equal(runs[p], wantRuns[p]) {
				t.Logf("run %d = %q, want %q", p, runs[p], wantRuns[p])
				return false
			}
			if cap(runs[p]) != len(runs[p]) {
				t.Logf("run %d has cap %d, len %d", p, cap(runs[p]), len(runs[p]))
				return false
			}
			if math.Float64bits(sizes[p]) != math.Float64bits(wantBytes[p]) {
				t.Logf("run %d size %v, want %v", p, sizes[p], wantBytes[p])
				return false
			}
		}
		for p := range earlier {
			if !slices.Equal(earlier[p], earlierCopy[p]) {
				t.Logf("reusing the buffer changed an earlier task's run %d", p)
				return false
			}
		}
		earlier = runs
		earlierCopy = make([][]KeyValue, len(runs))
		for p, run := range runs {
			earlierCopy[p] = append([]KeyValue(nil), run...)
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionOfIsFNV1a pins the inlined hash to hash/fnv: workers and
// the in-process engine must keep partitioning keys the same way.
func TestPartitionOfIsFNV1a(t *testing.T) {
	check := func(key string, r8 uint8) bool {
		numR := 1 + int(r8)
		h := fnv.New32a()
		h.Write([]byte(key))
		return PartitionOf(key, numR) == int(h.Sum32()%uint32(numR))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, key := range _keyPool {
		if !check(key, 7) {
			t.Fatalf("PartitionOf(%q) differs from FNV-1a", key)
		}
	}
}

// TestReduceSeesRunsInDeliveryOrder drives the engine's backend through
// a shuffle whose map values carry their task index: every reducer gets
// its runs in a shuffled delivery order, one reducer is reset halfway
// and re-fetches everything. The order-sensitive reduce output must
// equal the reference grouping of exactly the runs delivered after the
// last reset, in delivery order.
func TestReduceSeesRunsInDeliveryOrder(t *testing.T) {
	const maps, reducers = 9, 4
	job := Job{
		Name:  "tagged",
		Input: "in",
		// A block is "<tag> word word ...": emit (word, tag).
		Map: func(block []byte, emit func(k, v string)) {
			fields := strings.Fields(string(block))
			for _, w := range fields[1:] {
				emit(w, fields[0])
			}
		},
		Reduce:      joinReducer,
		NumReducers: reducers,
	}
	b := &realBackend{
		cluster: topology.MustNew(topology.Config{Nodes: 2, Racks: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}),
		jobs:    []Job{job},
		runs:    [][][][]KeyValue{make([][][]KeyValue, reducers)},
		outputs: []map[string]string{{}},
	}
	rng := rand.New(rand.NewSource(1))
	words := []string{"the", "whale", "ship", "ocean", "storm", "a", "\xff", "of"}
	chunks := make([][]KeyValue, 0, maps*reducers) // [task*reducers+reducer]
	for task := 0; task < maps; task++ {
		block := fmt.Sprintf("t%d", task)
		for i := 0; i < 40; i++ {
			block += " " + words[rng.Intn(len(words))]
		}
		_, out := b.Execute(0, task, 0, []byte(block))
		for _, c := range b.Partitions(0, task, out) {
			chunks = append(chunks, c.Data.([]KeyValue))
		}
	}
	want := map[string]string{}
	for r := 0; r < reducers; r++ {
		deliver := func() [][]KeyValue {
			var delivered [][]KeyValue
			for _, task := range rng.Perm(maps) {
				run := chunks[task*reducers+r]
				if err := b.Deliver(0, r, 1, runtime.Chunk{Data: run}); err != nil {
					t.Fatal(err)
				}
				delivered = append(delivered, run)
			}
			return delivered
		}
		delivered := deliver()
		if r == 1 {
			b.ReduceReset(0, r)
			delivered = deliver()
		}
		b.ReduceFinish(0, r)
		groupReduceReference(delivered, joinReducer, func(k, v string) { want[k] = v })
	}
	if !reflect.DeepEqual(b.outputs[0], want) {
		t.Fatalf("reduce output %q\nwant %q", b.outputs[0], want)
	}
	if v := want["whale"]; !strings.Contains(v, "t") || v == strings.Join(sortedTags(v), ",") {
		t.Fatalf("whale's values %q do not show a shuffled task order; the test checks nothing", v)
	}
}

func sortedTags(joined string) []string {
	tags := strings.Split(joined, ",")
	sort.Strings(tags)
	return tags
}
