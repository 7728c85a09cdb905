package minimr

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// splitLinesReference is the line splitting the jobs used before they
// walked blocks in place, kept as an oracle.
func splitLinesReference(block []byte) [][]byte {
	var lines [][]byte
	for _, line := range bytes.Split(block, []byte{'\n'}) {
		line = bytes.Trim(line, "\x00 ")
		if len(line) > 0 {
			lines = append(lines, line)
		}
	}
	return lines
}

// textBlock is a random block for testing/quick, built from pieces that
// exercise every splitting rule: ASCII and Unicode white space (NEL,
// no-break and ideographic spaces), NUL and space padding, invalid UTF-8
// and a multi-byte letter.
type textBlock []byte

var _blockPieces = []string{"a", "b", "whale", " ", "  ", "\n", "\t", "\r", "\v", "\f",
	"\x00", "\u0085", " ", "　", "\xff", "\xc3", "é", "\n\x00\x00"}

func (textBlock) Generate(r *rand.Rand, size int) reflect.Value {
	var b []byte
	for n := r.Intn(2*size + 1); n > 0; n-- {
		b = append(b, _blockPieces[r.Intn(len(_blockPieces))]...)
	}
	return reflect.ValueOf(textBlock(b))
}

func emitted(m Mapper, block []byte) []KeyValue {
	var out []KeyValue
	m(block, func(k, v string) { out = append(out, KeyValue{Key: k, Value: v}) })
	return out
}

// TestMapFunctionsMatchSplitReference: walking a block in place emits
// exactly the records that splitting it with bytes.Fields / bytes.Split
// did, trimming included.
func TestMapFunctionsMatchSplitReference(t *testing.T) {
	wordCount := WordCountJob("in", 1).Map
	lineCount := LineCountJob("in", 1).Map
	grep := GrepJob("in", "a", 1).Map
	check := func(tb textBlock) bool {
		block := []byte(tb)
		var words, lines, greps []KeyValue
		for _, w := range bytes.Fields(bytes.Trim(block, "\x00")) {
			words = append(words, KeyValue{Key: string(w), Value: "1"})
		}
		for _, line := range splitLinesReference(block) {
			lines = append(lines, KeyValue{Key: string(line), Value: "1"})
			if bytes.Contains(line, []byte("a")) {
				greps = append(greps, KeyValue{Key: string(line), Value: "1"})
			}
		}
		for _, c := range []struct {
			name      string
			got, want []KeyValue
		}{
			{"WordCount", emitted(wordCount, block), words},
			{"LineCount", emitted(lineCount, block), lines},
			{"Grep", emitted(grep, block), greps},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Logf("%s over %q: got %q, want %q", c.name, block, c.got, c.want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	for _, block := range []string{"", "\x00", "\n", " a ", "a\x00", "\x00a b\x00\n\x00", "\u0085a\u0085"} {
		if !check(textBlock(block)) {
			t.Fatalf("block %q", block)
		}
	}
}
