package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// CPU attribution. Each CPU-profile sample goes to one layer, decided by
// walking its stack from the leaf towards the root and stopping at the
// first frame that is one of:
//
//   - GC or allocator machinery of the Go runtime: the sample goes to
//     "go.gc";
//   - a function of degradedfirst/internal/<pkg>: the sample goes to
//     <pkg>, so standard-library callees such as container/heap or
//     encoding/json count towards the repository code that called them;
//   - a function of the benchmark itself (package main): "bench".
//
// A sample whose stack holds none of these goes to "other", as does a
// sample with no stack at all. Samples taken while the benchmark checks
// outputs (checkPhase) go to "bench" whatever their stack.
const (
	layerGC    = "go.gc"
	layerBench = "bench"
	layerOther = "other"
	modulePkg  = "degradedfirst/internal/"
)

// _gcPrefixes name the runtime functions that allocate memory or do
// garbage-collection work, by prefix of their profile names.
var _gcPrefixes = []string{
	"runtime.mallocgc",
	"runtime.gc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.sweepone",
	"runtime.markroot",
	"runtime.scanobject",
	"runtime.scanblock",
	"runtime.scanstack",
	"runtime.scanframeworker",
	"runtime.greyobject",
	"runtime.findObject",
	"runtime.wbBuf",
	"runtime.bulkBarrier",
	"runtime.deductAssistCredit",
	"runtime.(*mheap)",
	"runtime.(*mcache)",
	"runtime.(*mcentral)",
	"runtime.(*mspan)",
	"runtime.(*gcWork)",
	"runtime.(*gcControllerState)",
	"runtime.(*sweepLocked)",
	"runtime.(*scavengerState)",
	"runtime.(*pageAlloc)",
}

// frame is one stack frame of a profile sample.
type frame struct {
	fn   string // function name, e.g. degradedfirst/internal/sim.(*Engine).Run
	file string // source file; may be empty
}

// layerOfFrame classifies one frame; "" means keep walking. A repository
// frame belongs to the package whose directory holds its source file: a
// closure inlined into another package keeps its defining package.
func layerOfFrame(f frame) string {
	if rest, ok := strings.CutPrefix(f.fn, modulePkg); ok {
		if f.file != "" {
			return path.Base(path.Dir(f.file))
		}
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(f.fn, "main.") {
		return layerBench
	}
	if strings.HasPrefix(f.fn, "runtime.") {
		for _, p := range _gcPrefixes {
			if strings.HasPrefix(f.fn, p) {
				return layerGC
			}
		}
	}
	return ""
}

// layerOf classifies a stack given leaf first.
func layerOf(stack []frame) string {
	for _, f := range stack {
		if l := layerOfFrame(f); l != "" {
			return l
		}
	}
	return layerOther
}

// profileSample is one decoded CPU-profile sample.
type profileSample struct {
	stack []frame // leaf first, inlined frames expanded
	cpuNS int64
	check bool // taken while the benchmark checked outputs (checkPhase)
}

// attribute sums the samples' CPU time per layer.
func attribute(samples []profileSample) (map[string]float64, float64) {
	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		v := float64(s.cpuNS) / 1e9
		l := layerBench
		if !s.check {
			l = layerOf(s.stack)
		}
		out[l] += v
		total += v
	}
	return out, total
}

// decodeProfile parses a gzipped pprof CPU profile as written by
// runtime/pprof: the subset of profile.proto that holds sample types,
// samples with their labels, locations, functions and the string table.
func decodeProfile(gz []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64 // key, value string indices
	}
	var (
		strs     []string
		types    []int64 // string index of each sample type's name
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs    = map[uint64][2]int64{} // function id -> name, file string indices
	)
	err = eachField(raw, func(num int, _ int, _ uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var kv [2]int64
					err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 || n == 2 {
							kv[n-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var nameFile [2]int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					nameFile[0] = int64(v)
				case 4:
					nameFile[1] = int64(v)
				}
				return nil
			})
			funcs[id] = nameFile
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profileSample{cpuNS: s.values[cpu]}
		for _, kv := range s.labels {
			ps.check = ps.check || (str(kv[0]) == checkLabelKey && str(kv[1]) == checkLabelValue)
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				nf := funcs[fn]
				ps.stack = append(ps.stack, frame{fn: str(nf[0]), file: str(nf[1])})
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the bytes. Other wire types are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked decodes a repeated varint field in either its packed
// (length-delimited) or its unpacked form.
func appendPacked(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
