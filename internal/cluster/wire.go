// Package cluster is the distributed runtime: a wire-level master/worker
// layer that executes minimr jobs across real OS processes. The master
// keeps the deterministic virtual-clock master loop of internal/runtime
// — scheduling decisions, locality classes, failure recovery are the
// in-process ones — while a cluster backend turns each task's work into
// real RPCs: workers hold their node's erasure-coded blocks, fetch
// inputs peer-to-peer (reconstructing lost blocks from k sources for
// degraded reads), run the real map/reduce functions, and pull shuffle
// partitions from each other. Real heartbeats with deadlines feed dead
// workers into the same failure/re-execution path a simulated failure
// takes. See DESIGN.md §11.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"degradedfirst/internal/minimr"
	"degradedfirst/internal/trace"
)

// maxFrame bounds one wire frame, control header plus body; a node's
// registration shipment fits far under this, so anything larger is a
// corrupt or hostile stream.
const maxFrame = 64 << 20

// framePrefix is the envelope's fixed binary prefix: the big-endian
// uint32 lengths of the JSON control header and of the body.
const framePrefix = 8

// frame is the single envelope every wire message travels in. Kind
// routes it: "register"/"registered" (handshake), "hb" (heartbeat),
// "event" (trace streaming), "req"/"resp" (RPCs, matched by Seq),
// "peer" (one-shot worker↔worker fetches). The control fields travel as
// a small JSON header; Body travels after it as raw bytes, so it is
// never escaped, re-validated or scanned twice.
type frame struct {
	Kind   string `json:"kind"`
	Seq    uint64 `json:"seq,omitempty"`
	Method string `json:"method,omitempty"` // req only
	Error  string `json:"err,omitempty"`    // resp, peer and registered only
	Dead   []int  `json:"dead,omitempty"`   // resp only: implicated node IDs
	// Body is JSON for control messages and the binary payload codec
	// for bulk ones (see binaryEncoder); a peer block response's body is
	// the block itself.
	Body []byte `json:"-"`
}

// writeFrame writes f as one envelope: the prefix, the JSON header,
// then the body verbatim. Callers serialize writes themselves.
func writeFrame(w io.Writer, f *frame) error {
	hdr, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("cluster: encoding frame header: %w", err)
	}
	if n := len(hdr) + len(f.Body); n > maxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, framePrefix, framePrefix+len(hdr))
	binary.BigEndian.PutUint32(buf[0:], uint32(len(hdr)))
	binary.BigEndian.PutUint32(buf[4:], uint32(len(f.Body)))
	if _, err := w.Write(append(buf, hdr...)); err != nil {
		return err
	}
	if len(f.Body) == 0 {
		return nil
	}
	_, err = w.Write(f.Body)
	return err
}

// readFrame reads one envelope into f, replacing its contents. The
// declared lengths are checked against maxFrame first, and the buffer
// grows only as bytes arrive, so a peer that declares a large frame and
// stalls pins no more memory than it has sent.
func readFrame(r io.Reader, f *frame) error {
	var prefix [framePrefix]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return err
	}
	hn := binary.BigEndian.Uint32(prefix[0:])
	bn := binary.BigEndian.Uint32(prefix[4:])
	// Summed in 64 bits: two hostile uint32 lengths can wrap around.
	n := uint64(hn) + uint64(bn)
	if n > maxFrame {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
	}
	buf, err := readGrowing(r, int(n))
	if err != nil {
		return err
	}
	*f = frame{}
	if err := json.Unmarshal(buf[:hn], f); err != nil {
		return fmt.Errorf("cluster: decoding frame header: %w", err)
	}
	if bn > 0 {
		f.Body = buf[hn:]
	}
	return nil
}

// readChunk is the first buffer readGrowing allocates; it then doubles
// the buffer each time it fills, up to the length wanted.
const readChunk = 64 << 10

// readGrowing reads exactly n bytes from r into a buffer that starts at
// readChunk bytes and doubles as it fills, so it never holds more than
// twice what r has delivered (plus readChunk).
func readGrowing(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for {
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF // as one io.ReadFull of n bytes reports it
		}
		if err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+m]
		if len(buf) == n {
			return buf, nil
		}
		grown := make([]byte, len(buf), min(n, 2*cap(buf)))
		copy(grown, buf)
		buf = grown
	}
}

// The binary payload codec carries every bulk message body: a uvarint
// count before each list and a uvarint length before each byte string.
// Decoders check each count and length against the bytes that remain
// before allocating, and accept only the canonical encoding, so a
// payload that decodes re-encodes to exactly the bytes it came from.

// binaryEncoder and binaryDecoder mark the message types that travel in
// the payload codec; every other body is JSON (see encodeBody).
type binaryEncoder interface {
	appendBinary(dst []byte) []byte
}

type binaryDecoder interface {
	decodeBinary(p []byte) error
}

// encodeBody encodes an RPC body in its type's codec.
func encodeBody(v any) ([]byte, error) {
	if m, ok := v.(binaryEncoder); ok {
		return m.appendBinary(nil), nil
	}
	return json.Marshal(v)
}

// decodeBody decodes an RPC body into v with v's codec.
func decodeBody(p []byte, v any) error {
	if m, ok := v.(binaryDecoder); ok {
		return m.decodeBinary(p)
	}
	return json.Unmarshal(p, v)
}

// appendBytes encodes one byte string: its uvarint length, then its
// bytes.
func appendBytes[T string | []byte](dst []byte, s T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// uvarintLen is the encoded size of uvarint(n).
func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// appendRecords encodes a record list: its count, then each record's
// key and value.
func appendRecords(dst []byte, kvs []minimr.KeyValue) []byte {
	n := uvarintLen(len(kvs))
	for _, r := range kvs {
		n += uvarintLen(len(r.Key)) + len(r.Key) + uvarintLen(len(r.Value)) + len(r.Value)
	}
	dst = slices.Grow(dst, n)
	dst = binary.AppendUvarint(dst, uint64(len(kvs)))
	for _, r := range kvs {
		dst = appendBytes(dst, r.Key)
		dst = appendBytes(dst, r.Value)
	}
	return dst
}

// payloadReader decodes the payload codec. The first error sticks:
// later reads return zero values, and end reports it.
type payloadReader struct {
	b   []byte
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("cluster: payload: "+format, args...)
	}
	r.b = nil
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail("truncated varint")
	case n < 0:
		r.fail("varint overflows 64 bits")
	case n > 1 && r.b[n-1] == 0:
		r.fail("non-canonical varint")
	default:
		r.b = r.b[n:]
		return v
	}
	return 0
}

func (r *payloadReader) int() int { return int(r.uvarint()) }

// count reads a list length, checking that the remaining bytes can hold
// that many items of at least minSize bytes each.
func (r *payloadReader) count(minSize int) int {
	n := r.uvarint()
	if n > uint64(len(r.b)/minSize) {
		r.fail("count %d exceeds the %d bytes left", n, len(r.b))
		return 0
	}
	return int(n)
}

// bytes reads one length-prefixed byte string as a subslice of the
// payload; it aliases the frame's buffer, which nothing else reuses.
func (r *payloadReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("length %d exceeds the %d bytes left", n, len(r.b))
		return nil
	}
	b := r.b[:n:n]
	r.b = r.b[n:]
	return b
}

// records reads a list written by appendRecords. Every key and value
// is a substring of one copy of the list's bytes, so a list of any
// length decodes in two allocations.
func (r *payloadReader) records() []minimr.KeyValue {
	n := r.count(2) // an empty key and value take one byte each
	if n == 0 {
		return nil
	}
	all := string(r.b)
	str := func() string {
		b := r.bytes()
		end := len(all) - len(r.b)
		return all[end-len(b) : end]
	}
	kvs := make([]minimr.KeyValue, n)
	for i := range kvs {
		kvs[i] = minimr.KeyValue{Key: str(), Value: str()}
	}
	return kvs
}

// end reports the first decoding error, or bytes left over after a
// complete message.
func (r *payloadReader) end() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// registerMsg is the worker's opening message: where peers can reach it.
type registerMsg struct {
	PeerAddr string `json:"peer_addr"`
}

// registeredMsg is the master's handshake reply: the worker's identity,
// the code/block geometry it needs for reconstruction, the real
// heartbeat period, and its node's share of every stored file. It
// travels in the payload codec; a rejection travels as the frame's
// Error with no body.
type registeredMsg struct {
	Node         int
	CodeN        int
	CodeK        int
	Construction int
	BlockSize    int
	HeartbeatMS  int
	Blocks       []storedBlock
}

// storedBlock ships one block (native or parity) to its holder.
type storedBlock struct {
	File   string
	Stripe int
	Index  int
	Data   []byte
}

func (m *registeredMsg) fields() [6]*int {
	return [...]*int{&m.Node, &m.CodeN, &m.CodeK, &m.Construction, &m.BlockSize, &m.HeartbeatMS}
}

func (m registeredMsg) appendBinary(dst []byte) []byte {
	n := 7 * binary.MaxVarintLen64
	for _, b := range m.Blocks {
		n += len(b.File) + len(b.Data) + 4*binary.MaxVarintLen64
	}
	dst = slices.Grow(dst, n)
	for _, v := range m.fields() {
		dst = binary.AppendUvarint(dst, uint64(*v))
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Blocks)))
	for _, b := range m.Blocks {
		dst = appendBytes(dst, b.File)
		dst = binary.AppendUvarint(dst, uint64(b.Stripe))
		dst = binary.AppendUvarint(dst, uint64(b.Index))
		dst = appendBytes(dst, b.Data)
	}
	return dst
}

func (m *registeredMsg) decodeBinary(p []byte) error {
	r := payloadReader{b: p}
	var out registeredMsg
	for _, v := range out.fields() {
		*v = r.int()
	}
	if n := r.count(4); n > 0 { // file, stripe, index and data take a byte each at least
		out.Blocks = make([]storedBlock, n)
		for i := range out.Blocks {
			out.Blocks[i] = storedBlock{File: string(r.bytes()), Stripe: r.int(), Index: r.int(), Data: r.bytes()}
		}
	}
	if err := r.end(); err != nil {
		return err
	}
	*m = out
	return nil
}

// jobsMsg broadcasts the run's jobs ("jobs" RPC) before submission.
type jobsMsg struct {
	Jobs []JobSpec `json:"jobs"`
}

// fetchSpec names one block a worker must pull from a peer (or from its
// own store when Node is itself) before mapping.
type fetchSpec struct {
	Node   int    `json:"node"`
	Addr   string `json:"addr"`
	Stripe int    `json:"stripe"`
	Index  int    `json:"index"`
}

// mapReq runs one map task ("run-map" RPC). Fetch is empty for
// node-local input, the block's holder for rack/remote input, or the
// reconstruction sources when Degraded. Need, when positive, is the
// number of successful degraded fetches sufficient for reconstruction
// (the code's k): the worker races every Fetch entry, decodes from the
// first Need to arrive, and cancels the rest. Zero keeps the original
// wait-for-all gather byte-identical on the wire.
type mapReq struct {
	Job      int         `json:"job"`
	Task     int         `json:"task"`
	File     string      `json:"file"`
	Stripe   int         `json:"stripe"`
	Index    int         `json:"index"`
	Degraded bool        `json:"degraded,omitempty"`
	Need     int         `json:"need,omitempty"`
	Fetch    []fetchSpec `json:"fetch,omitempty"`
}

// mapResp reports a finished map task: per-reducer partition sizes (the
// records stay on the worker until reducers pull them), or the full
// output for map-only jobs. It travels in the payload codec, each size
// as the uvarint of its float64 bits so it round-trips exactly.
type mapResp struct {
	PartBytes []float64
	Output    []minimr.KeyValue
}

func (m mapResp) appendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.PartBytes)))
	for _, b := range m.PartBytes {
		dst = binary.AppendUvarint(dst, math.Float64bits(b))
	}
	return appendRecords(dst, m.Output)
}

func (m *mapResp) decodeBinary(p []byte) error {
	r := payloadReader{b: p}
	var out mapResp
	if n := r.count(1); n > 0 {
		out.PartBytes = make([]float64, n)
		for i := range out.PartBytes {
			out.PartBytes[i] = math.Float64frombits(r.uvarint())
		}
	}
	out.Output = r.records()
	if err := r.end(); err != nil {
		return err
	}
	*m = out
	return nil
}

// chunkFetchReq tells a reducer's worker to pull one map-output
// partition from the mapper's worker ("fetch-chunk" RPC).
type chunkFetchReq struct {
	Job     int    `json:"job"`
	Reducer int    `json:"reducer"`
	MapTask int    `json:"map_task"`
	Node    int    `json:"node"` // mapper's node
	Addr    string `json:"addr"` // mapper's peer address
}

// reduceReq runs one reduce task over the partitions the worker has
// fetched ("run-reduce" RPC); the response is its sorted output as
// records.
type reduceReq struct {
	Job     int `json:"job"`
	Reducer int `json:"reducer"`
}

// records is a record list in the payload codec: a peer "chunk"
// response (one map-output partition) or a "run-reduce" response.
type records []minimr.KeyValue

func (kvs records) appendBinary(dst []byte) []byte { return appendRecords(dst, kvs) }

func (kvs *records) decodeBinary(p []byte) error {
	r := payloadReader{b: p}
	out := r.records()
	if err := r.end(); err != nil {
		return err
	}
	*kvs = out
	return nil
}

// repairReq rebuilds one lost block on the receiving worker ("repair-
// block" RPC, sent to the repair destination): fetch every source block
// from its peer, decode the lost block, and store it locally — the
// worker becomes the block's new holder.
type repairReq struct {
	File   string      `json:"file"`
	Stripe int         `json:"stripe"`
	Index  int         `json:"index"`
	Fetch  []fetchSpec `json:"fetch"`
}

// repairResp reports the rebuilt block's size.
type repairResp struct {
	Bytes int `json:"bytes"`
}

// peerReq is the one-shot worker↔worker request: op "block" serves a
// stored block (the response body is the block's bytes), op "chunk"
// serves one map-output partition (the body is records). A failure
// travels as the response frame's Error.
type peerReq struct {
	Op      string `json:"op"`
	File    string `json:"file,omitempty"`
	Stripe  int    `json:"stripe"`
	Index   int    `json:"index"`
	Job     int    `json:"job"`
	MapTask int    `json:"map_task"`
	Reducer int    `json:"reducer"`
}

// eventBody wraps a streamed trace event.
type eventBody struct {
	Event trace.Event `json:"event"`
}

// mustJSON marshals a value this package defined; failure is a
// programming error, not a runtime condition.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("cluster: marshaling %T: %v", v, err))
	}
	return b
}

// deadPeersError marks an operation that failed because specific peers
// were unreachable; the RPC layer copies the IDs into the response's
// Dead field so the master can feed them into failure recovery.
type deadPeersError struct {
	peers []int
	cause error
}

func (e *deadPeersError) Error() string {
	return fmt.Sprintf("cluster: peers %v unreachable: %v", e.peers, e.cause)
}

func (e *deadPeersError) Unwrap() error { return e.cause }
