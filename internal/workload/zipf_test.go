package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"degradedfirst/internal/stats"
)

// zipfIndexLinear is the reference sampler: recompute the harmonic sum,
// then scan the partial sums for the first that reaches the target.
func zipfIndexLinear(rng *stats.RNG, n int) int {
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	target := rng.Float64() * h
	var acc float64
	for i := 0; i < n; i++ {
		acc += 1 / float64(i+1)
		if acc >= target {
			return i
		}
	}
	return n - 1
}

// TestZipfDrawMatchesLinearScan pins the table sampler to the reference
// draw for draw: two generators on the same seed must pick the same
// index every time, at the corpus vocabulary size and around it.
func TestZipfDrawMatchesLinearScan(t *testing.T) {
	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 16
	}
	for _, n := range []int{1, 2, 7, len(_vocabulary), 400} {
		z := newZipf(n)
		got, want := stats.NewRNG(int64(n)), stats.NewRNG(int64(n))
		for d := 0; d < draws; d++ {
			if g, w := z.draw(got), zipfIndexLinear(want, n); g != w {
				t.Fatalf("n=%d draw %d: table sampler picked %d, linear scan %d", n, d, g, w)
			}
		}
	}
}

// TestCorpusGoldens pins the generated corpora byte for byte, so a
// faster sampler cannot change the testbed's input.
func TestCorpusGoldens(t *testing.T) {
	aligned := []struct {
		blocks, blockSize int
		seed              int64
		sha256            string
	}{
		{120, 65536, 1, "c3a0ddcbabfccecfa9d9654e62482032615611369c1da5971082633465398c39"},
		{60, 65536, 9001, "694c7b3f26977fe997f6d932f86f44d74fa71da7cc6170e99fa27fba1a60813e"},
		{8, 512, 3, "47907fbbcce1919a5068ea75123d7deab9d3999c48c132c84856141c6d5c627e"},
	}
	for _, c := range aligned {
		text, err := GenerateBlockAlignedCorpus(c.blocks, c.blockSize, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(text); hex.EncodeToString(sum[:]) != c.sha256 {
			t.Fatalf("GenerateBlockAlignedCorpus(%d, %d, %d) changed: sha256 %x", c.blocks, c.blockSize, c.seed, sum)
		}
	}
	free := []struct {
		opts   CorpusOptions
		sha256 string
	}{
		{CorpusOptions{Bytes: 1 << 20, Seed: 1}, "f9de7d1e64d721521d5d0ab7e1446f1df9590085bf072581e25b0e275ce5e210"},
		{CorpusOptions{Bytes: 100000, WordsPerLine: 4, Seed: 7}, "ae29b991603b9940795bb579254a849985c924ae00b61de8d475743212960606"},
	}
	for _, c := range free {
		text, err := GenerateCorpus(c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(text); hex.EncodeToString(sum[:]) != c.sha256 {
			t.Fatalf("GenerateCorpus(%+v) changed: sha256 %x", c.opts, sum)
		}
	}
}
