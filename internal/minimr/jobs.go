package minimr

import (
	"bytes"
	"strconv"
	"unicode"
	"unicode/utf8"

	"degradedfirst/internal/netsim"
)

// The paper's testbed (Section VI) uses 64 MB blocks, 1 Gbps switches, and
// 15 GB of text (240 blocks). The reproduction scales all data volumes by
// 1024 so runs are laptop-sized, and scales bandwidth by the same factor so
// every transfer takes the same virtual time as on the testbed. CPU cost
// rates are calibrated per *real* megabyte from Table I's normal-map
// runtimes, then multiplied by the scale factor, so one scaled block costs
// exactly what one real block cost.
const (
	// TestbedScaleFactor shrinks data volumes relative to the testbed.
	TestbedScaleFactor = 1024
	// TestbedBlockSize is the scaled block size (64 MB / 1024 = 64 KB).
	TestbedBlockSize = 64 * 1024 * 1024 / TestbedScaleFactor
	// TestbedRackBps is the scaled switch bandwidth (1 Gbps / 1024).
	TestbedRackBps = netsim.Gbps / TestbedScaleFactor
	// TestbedNumBlocks is the testbed's input size in blocks (15 GB).
	TestbedNumBlocks = 240
)

// calibrated converts a per-real-MB CPU rate into the scaled Cost.
func calibrated(secPerRealMB float64) Cost {
	return Cost{PerMB: secPerRealMB * TestbedScaleFactor}
}

// Per-real-MB map rates derived from Table I's normal-map runtimes over
// 64 MB blocks: WordCount 30.94 s, Grep 11.69 s, LineCount 35.91 s.
var (
	_wordCountMapCost = calibrated(30.94 / 64)
	_grepMapCost      = calibrated(11.69 / 64)
	_lineCountMapCost = calibrated(35.91 / 64)
	// Reduce CPU rates per real MB of shuffled data (the bulk of the
	// paper's reduce runtimes is waiting for the map phase, which emerges
	// from the engine; this is only the compute tail).
	_sumReduceCost = calibrated(0.04)
)

// eachField calls fn with every whitespace-separated field of s, as
// bytes.Fields splits it: runs of non-space runes between Unicode white
// space, with invalid UTF-8 bytes counting as non-space.
func eachField(s string, fn func(field string)) {
	start := -1
	for i := 0; i < len(s); {
		var space bool
		w := 1
		if c := s[i]; c < utf8.RuneSelf {
			space = _asciiSpace[c]
		} else {
			var r rune
			r, w = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		switch {
		case space && start >= 0:
			fn(s[start:i])
			start = -1
		case !space && start < 0:
			start = i
		}
		i += w
	}
	if start >= 0 {
		fn(s[start:])
	}
}

var _asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// eachLine calls fn with the bounds of every non-empty line of a block,
// trimming the NUL and space padding that block-aligned corpora carry.
func eachLine(block []byte, fn func(lo, hi int)) {
	for lo := 0; lo < len(block); {
		end := len(block)
		if i := bytes.IndexByte(block[lo:], '\n'); i >= 0 {
			end = lo + i
		}
		next := end + 1
		for lo < end && (block[lo] == 0 || block[lo] == ' ') {
			lo++
		}
		for end > lo && (block[end-1] == 0 || block[end-1] == ' ') {
			end--
		}
		if end > lo {
			fn(lo, end)
		}
		lo = next
	}
}

// sumReducer adds up numeric values for a key ("1" counts in all three
// jobs).
func sumReducer(key string, values []string, emit func(k, v string)) {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		total += n
	}
	emit(key, strconv.Itoa(total))
}

// WordCountJob builds the paper's WordCount: map tokenizes words and emits
// (word, 1); reduce sums the counts.
func WordCountJob(input string, reducers int) Job {
	return Job{
		Name:  "WordCount",
		Input: input,
		Map: func(block []byte, emit func(k, v string)) {
			// One string per block; every word is a substring of it.
			eachField(string(bytes.Trim(block, "\x00")), func(w string) { emit(w, "1") })
		},
		Reduce:      sumReducer,
		NumReducers: reducers,
		MapCost:     _wordCountMapCost,
		ReduceCost:  _sumReduceCost,
	}
}

// GrepJob builds the paper's Grep: map emits the lines containing the
// given word; reduce aggregates their occurrence counts.
func GrepJob(input, word string, reducers int) Job {
	needle := []byte(word)
	return Job{
		Name:  "Grep",
		Input: input,
		Map: func(block []byte, emit func(k, v string)) {
			eachLine(block, func(lo, hi int) {
				if line := block[lo:hi]; bytes.Contains(line, needle) {
					emit(string(line), "1")
				}
			})
		},
		Reduce:      sumReducer,
		NumReducers: reducers,
		MapCost:     _grepMapCost,
		ReduceCost:  _sumReduceCost,
	}
}

// LineCountJob builds the paper's LineCount: like WordCount over whole
// lines — it shuffles more data than Grep.
func LineCountJob(input string, reducers int) Job {
	return Job{
		Name:  "LineCount",
		Input: input,
		Map: func(block []byte, emit func(k, v string)) {
			// One string per block; every line is a substring of it.
			text := string(block)
			eachLine(block, func(lo, hi int) { emit(text[lo:hi], "1") })
		},
		Reduce:      sumReducer,
		NumReducers: reducers,
		MapCost:     _lineCountMapCost,
		ReduceCost:  _sumReduceCost,
	}
}
