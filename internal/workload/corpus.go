// Package workload generates the inputs the paper's evaluation uses:
// a synthetic English-like text corpus (standing in for the Project
// Gutenberg data of Section VI) and multi-job arrival patterns
// (Section V-B's 10 jobs with exponential inter-arrival times).
package workload

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"degradedfirst/internal/stats"
)

// corpusVocabulary is a base vocabulary; word frequency follows a Zipf-like
// distribution so WordCount/Grep behave like they would on real text.
var _vocabulary = []string{
	"the", "of", "and", "a", "to", "in", "is", "you", "that", "it",
	"he", "was", "for", "on", "are", "as", "with", "his", "they", "I",
	"at", "be", "this", "have", "from", "or", "one", "had", "by", "word",
	"but", "not", "what", "all", "were", "we", "when", "your", "can", "said",
	"there", "use", "an", "each", "which", "she", "do", "how", "their", "if",
	"will", "up", "other", "about", "out", "many", "then", "them", "these", "so",
	"some", "her", "would", "make", "like", "him", "into", "time", "has", "look",
	"two", "more", "write", "go", "see", "number", "no", "way", "could", "people",
	"my", "than", "first", "water", "been", "call", "who", "oil", "its", "now",
	"find", "long", "down", "day", "did", "get", "come", "made", "may", "part",
	"gutenberg", "whale", "ocean", "ship", "captain", "storm", "harbor", "voyage",
}

// CorpusOptions configures text generation.
type CorpusOptions struct {
	// Bytes is the approximate output size; the result is at least this
	// long (trimmed to exactly this length).
	Bytes int
	// WordsPerLine is the mean words per line (lines vary ±50%).
	WordsPerLine int
	// Seed drives the generator.
	Seed int64
}

// GenerateCorpus produces deterministic English-like text of exactly
// opts.Bytes bytes: Zipf-distributed words, newline-separated lines.
func GenerateCorpus(opts CorpusOptions) ([]byte, error) {
	if opts.Bytes <= 0 {
		return nil, fmt.Errorf("workload: corpus size must be positive, got %d", opts.Bytes)
	}
	if opts.WordsPerLine <= 0 {
		opts.WordsPerLine = 10
	}
	rng := stats.NewRNG(opts.Seed)
	vocab := newZipf(len(_vocabulary))
	var buf bytes.Buffer
	buf.Grow(opts.Bytes + 64)
	for buf.Len() < opts.Bytes {
		lineWords := 1 + int(float64(opts.WordsPerLine)*(0.5+rng.Float64()))
		for w := 0; w < lineWords; w++ {
			if w > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteString(_vocabulary[vocab.draw(rng)])
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()[:opts.Bytes], nil
}

// zipf draws indexes in [0, n) with probability proportional to
// 1/(i+1), a Zipf(1) law, by inverting the CDF of the harmonic sum.
// cum[i] is 1/1 + 1/2 + ... + 1/(i+1), added left to right, so cum[n-1]
// equals harmonic(n) bit for bit and a draw returns the first index a
// linear scan of the partial sums would.
type zipf struct {
	cum []float64
}

func newZipf(n int) zipf {
	cum := make([]float64, n)
	var acc float64
	for i := range cum {
		acc += 1 / float64(i+1)
		cum[i] = acc
	}
	return zipf{cum: cum}
}

// draw returns the first index whose partial sum reaches a uniform
// target in [0, harmonic(n)]; the last partial sum always does.
func (z zipf) draw(rng *stats.RNG) int {
	i, _ := slices.BinarySearch(z.cum, rng.Float64()*z.cum[len(z.cum)-1])
	return i
}

// GenerateBlockAlignedCorpus produces exactly numBlocks * blockSize bytes
// of text in which no line crosses a block boundary (blocks are padded
// with newlines). Hadoop's input splits re-align records across block
// boundaries; minimr's mappers see raw blocks, so the corpus guarantees
// alignment instead. Empty lines from the padding are skipped by both the
// reference counters and the jobs.
func GenerateBlockAlignedCorpus(numBlocks, blockSize int, seed int64) ([]byte, error) {
	if numBlocks <= 0 || blockSize <= 0 {
		return nil, fmt.Errorf("workload: numBlocks and blockSize must be positive")
	}
	if blockSize < 64 {
		return nil, fmt.Errorf("workload: blockSize %d too small for text lines", blockSize)
	}
	rng := stats.NewRNG(seed)
	vocab := newZipf(len(_vocabulary))
	out := make([]byte, 0, numBlocks*blockSize)
	var line bytes.Buffer
	for b := 0; b < numBlocks; b++ {
		used := 0
		for {
			line.Reset()
			words := 3 + rng.Intn(12)
			for w := 0; w < words; w++ {
				if w > 0 {
					line.WriteByte(' ')
				}
				line.WriteString(_vocabulary[vocab.draw(rng)])
			}
			line.WriteByte('\n')
			if used+line.Len() > blockSize {
				break
			}
			out = append(out, line.Bytes()...)
			used += line.Len()
		}
		for ; used < blockSize; used++ {
			out = append(out, '\n')
		}
	}
	return out, nil
}

// CountWords returns the reference word counts of a corpus — ground truth
// for validating MapReduce outputs.
func CountWords(text []byte) map[string]int {
	counts := make(map[string]int)
	for _, w := range bytes.Fields(text) {
		counts[string(w)]++
	}
	return counts
}

// CountLines returns the reference per-line counts of a corpus.
func CountLines(text []byte) map[string]int {
	counts := make(map[string]int)
	for _, line := range bytes.Split(text, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		counts[string(line)]++
	}
	return counts
}

// GrepLines returns the lines containing the given word, with
// multiplicity — ground truth for the Grep job.
func GrepLines(text []byte, word string) map[string]int {
	counts := make(map[string]int)
	needle := []byte(word)
	for _, line := range bytes.Split(text, []byte{'\n'}) {
		if len(line) == 0 || !bytes.Contains(line, needle) {
			continue
		}
		counts[string(line)]++
	}
	return counts
}

// ZipfSkewness returns the ratio between the most frequent and the median
// word frequency of a corpus; used by tests to verify the distribution is
// actually skewed (real-text-like), not uniform.
func ZipfSkewness(text []byte) float64 {
	counts := CountWords(text)
	if len(counts) == 0 {
		return 0
	}
	freqs := make([]float64, 0, len(counts))
	//lint:ignore maporder freqs is reduced by max and median, both order-insensitive
	for _, c := range counts {
		freqs = append(freqs, float64(c))
	}
	maxF := 0.0
	for _, f := range freqs {
		if f > maxF {
			maxF = f
		}
	}
	med := stats.Median(freqs)
	if med == 0 || math.IsNaN(med) {
		return 0
	}
	return maxF / med
}
