package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"degradedfirst/internal/trace"
)

// now reads the host clock. The benchmark times the program from
// outside; it never feeds host time into the program.
func now() time.Time {
	return time.Now() //lint:ignore netboundary the benchmark measures host wall time
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// ioBytes returns the process's rchar+wchar from /proc/self/io: bytes
// passed through read and write system calls, sockets included.
func ioBytes() float64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var total float64
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		k, v, ok := bytes.Cut(line, []byte(": "))
		if !ok || (string(k) != "rchar" && string(k) != "wchar") {
			continue
		}
		n, err := strconv.ParseFloat(string(v), 64)
		if err == nil {
			total += n
		}
	}
	return total
}

// cpuTicks returns the machine's total and stolen CPU time from
// /proc/stat, in clock ticks. Steal is time the hypervisor gave this
// machine's virtual CPUs to someone else; it slows every timing here.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte{'\n'})
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// goStats is a snapshot of the Go runtime's own counters.
type goStats struct {
	gcCPU, allocBytes, gcCycles, mutexWait float64
	schedLat                               *metrics.Float64Histogram
}

var _goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(_goMetricNames))
	for i, n := range _goMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	s := goStats{
		gcCPU:      num(samples[0].Value),
		allocBytes: num(samples[1].Value),
		gcCycles:   num(samples[2].Value),
		mutexWait:  num(samples[3].Value),
	}
	if samples[4].Value.Kind() == metrics.KindFloat64Histogram {
		s.schedLat = samples[4].Value.Float64Histogram()
	}
	return s
}

// schedLatencyQuantile returns the q-quantile of the scheduling latencies
// recorded between two snapshots, in seconds, interpolated linearly
// within its histogram bucket.
func schedLatencyQuantile(before, after *metrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(after.Counts))
	for i := range after.Counts {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	target := q * float64(total)
	var seen float64
	for i, c := range delta {
		if c == 0 || seen+float64(c) < target {
			seen += float64(c)
			continue
		}
		lo, hi := after.Buckets[i], after.Buckets[i+1]
		if math.IsInf(lo, -1) {
			return hi
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(target-seen)/float64(c)
	}
	return 0
}

// switchSink forwards events to a sink that can be swapped between ops;
// the loopback cluster fixes its sink when it starts.
type switchSink struct {
	mu   sync.Mutex
	sink trace.Sink
}

func (s *switchSink) set(sink trace.Sink) {
	s.mu.Lock()
	s.sink = sink
	s.mu.Unlock()
}

// Emit implements trace.Sink.
func (s *switchSink) Emit(e trace.Event) {
	s.mu.Lock()
	sink := s.sink
	s.mu.Unlock()
	if sink != nil {
		sink.Emit(e)
	}
}

// countSink counts trace events by type and sums the payload bytes of
// the wire events. It keeps no events.
type countSink struct {
	mu        sync.Mutex
	counts    map[trace.Type]int
	total     int
	wireBytes float64
}

func newCountSink() *countSink { return &countSink{counts: map[trace.Type]int{}} }

// Emit implements trace.Sink.
func (c *countSink) Emit(e trace.Event) {
	c.mu.Lock()
	c.total++
	c.counts[e.Type]++
	if e.Type == trace.EvWireFetch || e.Type == trace.EvWireShuffle {
		c.wireBytes += e.Bytes
	}
	c.mu.Unlock()
}

func (c *countSink) count(t trace.Type) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[t]
}

// totals returns the number of events, of wire-level events of the
// distributed runtime, and the wire payload bytes.
func (c *countSink) totals() (events, wire int, wireBytes float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for t, v := range c.counts {
		if strings.HasPrefix(string(t), "wire-") {
			wire += v
		}
	}
	return c.total, wire, c.wireBytes
}

// virtualCounts returns the counts of the events that follow the
// virtual clock, as sorted "type=count" pairs. Wire events and worker
// joins happen in real time and depend on goroutine scheduling, so they
// stay out of the digest.
func (c *countSink) virtualCounts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for t, v := range c.counts {
		if strings.HasPrefix(string(t), "wire-") || strings.HasPrefix(string(t), "worker-") {
			continue
		}
		out = append(out, fmt.Sprintf("%s=%d", t, v))
	}
	sort.Strings(out)
	return out
}
