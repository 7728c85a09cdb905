package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"

	"degradedfirst/internal/minimr"
)

// testRecords holds keys and values that are not valid UTF-8, which a
// JSON body would rewrite to U+FFFD.
var testRecords = []minimr.KeyValue{
	{Key: "caf\xe9", Value: "1"},
	{Key: "caf\xff", Value: "22"},
	{Key: "", Value: ""},
	{Key: "whale", Value: strings.Repeat("v", 300)},
}

// roundTripFrames are the envelope cases TestFrameRoundTrip checks and
// FuzzReadFrame starts from: control frames with JSON bodies and bulk
// frames with binary ones.
func roundTripFrames() []frame {
	return []frame{
		{Kind: "hb"},
		{Kind: "register", Body: mustJSON(registerMsg{PeerAddr: "127.0.0.1:9"})},
		{Kind: "req", Seq: 42, Method: "run-map", Body: mustJSON(mapReq{Job: 1, Task: 7, File: "input.txt", Degraded: true,
			Fetch: []fetchSpec{{Node: 3, Addr: "a", Stripe: 2, Index: 11}}})},
		{Kind: "resp", Seq: 42, Error: "boom", Dead: []int{3, 5}},
		{Kind: "peer", Body: []byte{0, 1, 2, 0xe9, 0xff, 0}},
		{Kind: "resp", Seq: 43, Body: records(testRecords).appendBinary(nil)},
		{Kind: "resp", Seq: 44, Body: mapResp{PartBytes: []float64{0, 12, 1e9 + 0.5}}.appendBinary(nil)},
		{Kind: "registered", Body: registeredMsg{Node: 4, CodeN: 12, CodeK: 10, BlockSize: 64, HeartbeatMS: 500,
			Blocks: []storedBlock{{File: "input.txt", Stripe: 3, Index: 11, Data: []byte{0xff, 0, 0xe9}}}}.appendBinary(nil)},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, in := range roundTripFrames() {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &in); err != nil {
			t.Fatalf("write %q: %v", in.Kind, err)
		}
		var out frame
		if err := readFrame(&buf, &out); err != nil {
			t.Fatalf("read %q: %v", in.Kind, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed frame %q:\n in: %+v\nout: %+v", in.Kind, in, out)
		}
	}
}

// TestPayloadRoundTrip pins the bulk messages' codec: every record,
// block and size comes back exactly, including bytes that are not
// UTF-8.
func TestPayloadRoundTrip(t *testing.T) {
	cases := []struct {
		in  binaryEncoder
		out binaryDecoder
	}{
		{records(testRecords), new(records)},
		{records(nil), new(records)},
		{mapResp{PartBytes: []float64{3, 0.1, 1 << 60}}, new(mapResp)},
		{mapResp{Output: testRecords}, new(mapResp)},
		{registeredMsg{Node: 11, CodeN: 12, CodeK: 10, Construction: 1, BlockSize: 65536, HeartbeatMS: 100,
			Blocks: []storedBlock{
				{File: "a\xe9", Stripe: 0, Index: 1, Data: []byte("x")},
				{File: "b", Stripe: 7, Index: 11, Data: bytes.Repeat([]byte{0xff}, 1000)},
			}}, new(registeredMsg)},
	}
	for i, c := range cases {
		p := c.in.appendBinary(nil)
		if err := c.out.decodeBinary(p); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		got := reflect.ValueOf(c.out).Elem().Interface()
		if !reflect.DeepEqual(got, c.in) {
			t.Fatalf("case %d: round trip changed\n in: %+v\nout: %+v", i, c.in, got)
		}
	}
}

// TestPayloadDecodersRejectMalformed feeds the payload decoders damaged
// bodies: each must return an error, never panic or allocate what a
// hostile count or length claims.
func TestPayloadDecodersRejectMalformed(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	good := records(testRecords[:1]).appendBinary(nil)
	cases := map[string][]byte{
		"empty":                 nil,
		"truncated record":      good[:len(good)-1],
		"missing value":         append(uv(1, 3), "abc"...),
		"count beyond bytes":    append(uv(1<<40), 0, 0),
		"length beyond bytes":   append(uv(1, 1<<40), 0),
		"non-canonical varint":  {0x81, 0x00, 0, 0},
		"varint overflow":       bytes.Repeat([]byte{0xff}, 11),
		"trailing bytes":        append(append([]byte(nil), good...), 0),
		"truncated varint":      {0x80},
		"huge count, few bytes": uv(1 << 62),
	}
	for name, p := range cases {
		var kvs records
		if err := kvs.decodeBinary(p); err == nil {
			t.Errorf("records decoder accepted %s", name)
		}
	}
	for name, p := range map[string][]byte{
		"sizes beyond bytes":  uv(1<<30, 0),
		"missing records":     uv(1, 7),
		"truncated size":      {1, 0x80},
		"records beyond size": append(uv(0, 5), 0, 0),
	} {
		var m mapResp
		if err := m.decodeBinary(p); err == nil {
			t.Errorf("map response decoder accepted %s", name)
		}
	}
	reg := registeredMsg{Node: 1, Blocks: []storedBlock{{File: "f", Data: []byte("data")}}}.appendBinary(nil)
	for name, p := range map[string][]byte{
		"truncated fields":    uv(1, 2, 3),
		"blocks beyond bytes": uv(0, 0, 0, 0, 0, 0, 1<<40, 0),
		"truncated block":     reg[:len(reg)-1],
		"trailing bytes":      append(append([]byte(nil), reg...), 9),
	} {
		var m registeredMsg
		if err := m.decodeBinary(p); err == nil {
			t.Errorf("registration decoder accepted %s", name)
		}
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	huge := frame{Kind: "event", Body: make([]byte, maxFrame)}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &huge); err == nil {
		t.Fatal("writeFrame accepted an oversized frame")
	}

	// Hostile length prefixes must be rejected before allocation: the
	// header alone, the body alone, and a pair whose uint32 sum wraps.
	prefixes := [][2]uint32{
		{maxFrame + 1, 0},
		{0, maxFrame + 1},
		{maxFrame/2 + 1, maxFrame / 2},
		{0xffffffff, 1},
		{0xffffffff, 0xffffffff},
	}
	for _, p := range prefixes {
		var hdr [framePrefix]byte
		binary.BigEndian.PutUint32(hdr[0:], p[0])
		binary.BigEndian.PutUint32(hdr[4:], p[1])
		var f frame
		var err error
		grew := allocated(func() { err = readFrame(bytes.NewReader(hdr[:]), &f) })
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("prefix %#x: err = %v, want the size guard", p, err)
		}
		if grew > 1<<20 {
			t.Fatalf("prefix %#x: allocated %d bytes before rejecting", p, grew)
		}
	}
}

// TestFrameStallAllocatesLittle: a prefix that declares the largest
// frame the limit allows, then stalls and hangs up, must fail without
// the frame's declared size ever being allocated; a peer pins only what
// it has actually sent.
func TestFrameStallAllocatesLittle(t *testing.T) {
	for _, sent := range []int{0, 1000, 300 << 10} {
		var hdr [framePrefix]byte
		binary.BigEndian.PutUint32(hdr[0:], 2)
		binary.BigEndian.PutUint32(hdr[4:], maxFrame-2)
		stream := append(hdr[:], make([]byte, sent)...)
		var f frame
		var err error
		grew := allocated(func() { err = readFrame(bytes.NewReader(stream), &f) })
		if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d body bytes then EOF: err = %v, want an EOF", sent, err)
		}
		if limit := uint64(1<<20 + 4*sent); grew > limit {
			t.Fatalf("%d body bytes then EOF: allocated %d bytes (limit %d)", sent, grew, limit)
		}
	}
}

func TestFrameStreamsSequentially(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		f := frame{Kind: "req", Seq: uint64(i), Method: "jobs", Body: []byte{byte(i)}}
		if err := writeFrame(&buf, &f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		var f frame
		if err := readFrame(&buf, &f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.Seq != uint64(i) || !bytes.Equal(f.Body, []byte{byte(i)}) {
			t.Fatalf("frame %d read out of order (seq %d, body %v)", i, f.Seq, f.Body)
		}
	}
}

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	fn()
	goruntime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadFrame feeds arbitrary bytes to readFrame and to every payload
// decoder. Nothing may panic, and both allocate in proportion to the
// input whatever lengths and counts it claims: readFrame grows its
// buffer only as bytes arrive, and a payload decoder has the whole body
// in hand. A frame that decodes re-encodes
// to bytes that decode to the same body and re-encode identically; JSON
// allows many spellings of one header, so the re-encoded header is
// checked to be a fixed point rather than equal to the input's. A
// payload that decodes re-encodes to exactly the input.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range roundTripFrames() {
		var buf bytes.Buffer
		if err := writeFrame(&buf, &fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(fr.Body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if grew, limit := allocated(func() { checkFrameFixedPoint(t, data) }), uint64(1<<20+64*len(data)); grew > limit {
			t.Fatalf("reading a frame from %d bytes allocated %d", len(data), grew)
		}
		grew := allocated(func() {
			for _, dec := range []interface {
				binaryEncoder
				binaryDecoder
			}{new(records), new(mapResp), new(registeredMsg)} {
				if dec.decodeBinary(data) != nil {
					continue
				}
				if out := dec.appendBinary(nil); !bytes.Equal(out, data) {
					t.Fatalf("%T re-encodes %x as %x", dec, data, out)
				}
			}
		})
		if limit := uint64(1<<20 + 64*len(data)); grew > limit {
			t.Fatalf("decoding a %d-byte payload allocated %d", len(data), grew)
		}
	})
}

func checkFrameFixedPoint(t *testing.T, data []byte) {
	var f1 frame
	if readFrame(bytes.NewReader(data), &f1) != nil {
		return
	}
	var b1, b2 bytes.Buffer
	if err := writeFrame(&b1, &f1); err != nil {
		t.Fatalf("re-encoding a decoded frame: %v", err)
	}
	var f2 frame
	if err := readFrame(bytes.NewReader(b1.Bytes()), &f2); err != nil {
		t.Fatalf("decoding a re-encoded frame: %v", err)
	}
	if !bytes.Equal(f1.Body, f2.Body) {
		t.Fatalf("body changed: %x → %x", f1.Body, f2.Body)
	}
	if err := writeFrame(&b2, &f2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("re-encoding is not a fixed point: %x → %x", b1.Bytes(), b2.Bytes())
	}
}
