package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
)

// WorkerOptions configures one worker process.
type WorkerOptions struct {
	// MasterAddr is where the master listens.
	MasterAddr string
	// ListenAddr is the worker's peer listen address (default
	// "127.0.0.1:0"); other workers fetch blocks and shuffle partitions
	// from it.
	ListenAddr string
	// Drag adds a real delay to every map task. Zero in production; tests
	// and demos use it to stretch real task time so failures land mid-job.
	Drag time.Duration
}

type blockKey struct {
	file          string
	stripe, index int
}

type partKey struct{ job, task int }

type chunkKey struct{ job, reducer, mapTask int }

// Worker is one node's process: it holds the node's erasure-coded
// blocks, runs the real map/reduce functions on the master's command,
// serves blocks and shuffle partitions to peers, and heartbeats to the
// master over the registration connection.
type Worker struct {
	node      topology.NodeID
	code      *erasure.Code
	blockSize int
	hbEvery   time.Duration
	drag      time.Duration
	conn      *rpcConn
	peerLn    net.Listener
	epoch     time.Time

	mu    sync.Mutex
	jobs  []minimr.Job
	store map[blockKey][]byte
	// parts[job/task][reducer] holds the task's real map-output
	// partitions until reducers pull them.
	parts map[partKey][][]minimr.KeyValue
	// rbuf accumulates the shuffle chunks this node's reducers fetched.
	rbuf map[chunkKey][]minimr.KeyValue
	// mapBufs holds idle *minimr.MapBuffer values for reuse; map tasks
	// run concurrently, so each takes its own.
	mapBufs sync.Pool

	hbStop    chan struct{}
	hbOnce    sync.Once
	done      chan struct{}
	closeOnce sync.Once
}

// StartWorker dials the master (with backoff — the master may still be
// starting), registers, receives its node identity and block share, and
// begins serving. It returns once the worker is fully operational.
func StartWorker(opts WorkerOptions) (*Worker, error) {
	if opts.ListenAddr == "" {
		opts.ListenAddr = "127.0.0.1:0"
	}
	peerLn, err := net.Listen("tcp", opts.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker listen: %w", err)
	}

	var c net.Conn
	delay := 25 * time.Millisecond
	for attempt := 0; ; attempt++ {
		c, err = net.Dial("tcp", opts.MasterAddr)
		if err == nil {
			break
		}
		if attempt >= 9 {
			peerLn.Close()
			return nil, fmt.Errorf("cluster: dialing master %s: %w", opts.MasterAddr, err)
		}
		time.Sleep(delay)
		delay *= 2
	}

	rc := newRPCConn(c)
	if err := rc.send(&frame{Kind: "register", Body: mustJSON(registerMsg{PeerAddr: peerLn.Addr().String()})}); err != nil {
		peerLn.Close()
		c.Close()
		return nil, fmt.Errorf("cluster: registering: %w", err)
	}
	var f frame
	if err := readFrame(rc.br, &f); err != nil || f.Kind != "registered" {
		peerLn.Close()
		c.Close()
		return nil, fmt.Errorf("cluster: registration reply: %v (kind %q)", err, f.Kind)
	}
	if f.Error != "" {
		peerLn.Close()
		c.Close()
		return nil, fmt.Errorf("cluster: master rejected registration: %s", f.Error)
	}
	var msg registeredMsg
	if err := msg.decodeBinary(f.Body); err != nil {
		peerLn.Close()
		c.Close()
		return nil, fmt.Errorf("cluster: decoding registration: %w", err)
	}
	code, err := erasure.New(msg.CodeN, msg.CodeK,
		erasure.WithConstruction(erasure.Construction(msg.Construction)))
	if err != nil {
		peerLn.Close()
		c.Close()
		return nil, fmt.Errorf("cluster: rebuilding code: %w", err)
	}

	w := &Worker{
		node:      topology.NodeID(msg.Node),
		code:      code,
		blockSize: msg.BlockSize,
		hbEvery:   time.Duration(msg.HeartbeatMS) * time.Millisecond,
		drag:      opts.Drag,
		conn:      rc,
		peerLn:    peerLn,
		epoch:     time.Now(),
		store:     make(map[blockKey][]byte),
		parts:     make(map[partKey][][]minimr.KeyValue),
		rbuf:      make(map[chunkKey][]minimr.KeyValue),
		mapBufs:   sync.Pool{New: func() any { return new(minimr.MapBuffer) }},
		hbStop:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	for _, sb := range msg.Blocks {
		w.store[blockKey{file: sb.File, stripe: sb.Stripe, index: sb.Index}] = sb.Data
	}

	rc.serve = w.serve
	rc.onClose = func(error) { w.shutdown() } // master gone → worker exits
	rc.start()
	go w.heartbeatLoop()
	go w.peerAcceptLoop()
	return w, nil
}

// Node returns the node identity the master assigned.
func (w *Worker) Node() topology.NodeID { return w.node }

// Done is closed when the worker shuts down (its master connection
// died, or Close/Kill was called).
func (w *Worker) Done() <-chan struct{} { return w.done }

// shutdown releases everything except the master connection; it must
// not touch conn, because the connection's own teardown invokes it.
func (w *Worker) shutdown() {
	w.closeOnce.Do(func() {
		close(w.done)
		w.peerLn.Close()
	})
}

// Close shuts the worker down.
func (w *Worker) Close() {
	w.conn.close(errConnClosed) // idempotent; its onClose hook runs shutdown
	w.shutdown()
}

// Kill shuts the worker down abruptly, as a process crash would: the
// master connection drops mid-stream and the peer listener vanishes.
func (w *Worker) Kill() { w.Close() }

// StopHeartbeats halts the heartbeat loop while the worker keeps serving
// requests. Tests use it to exercise the master's pure deadline-based
// failure detection — the connection stays up, only the beats stop.
func (w *Worker) StopHeartbeats() {
	w.hbOnce.Do(func() { close(w.hbStop) })
}

func (w *Worker) heartbeatLoop() {
	t := time.NewTicker(w.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-w.hbStop:
			return
		case <-w.done:
			return
		case <-t.C:
			if err := w.conn.send(&frame{Kind: "hb"}); err != nil {
				return
			}
		}
	}
}

// emit streams one wire event to the master's merged trace; delivery is
// best-effort (a dying connection already surfaces elsewhere).
func (w *Worker) emit(ev trace.Event) {
	w.conn.send(&frame{Kind: "event", Body: mustJSON(eventBody{Event: ev})})
}

// realNow is real seconds since this worker started; its wire events
// carry this clock.
func (w *Worker) realNow() float64 { return time.Since(w.epoch).Seconds() }

// serve dispatches one master RPC.
func (w *Worker) serve(method string, body []byte) (any, error) {
	switch method {
	case "jobs":
		var msg jobsMsg
		if err := json.Unmarshal(body, &msg); err != nil {
			return nil, err
		}
		jobs, err := BuildJobs(msg.Jobs)
		if err != nil {
			return nil, err
		}
		w.mu.Lock()
		w.jobs = jobs
		// A fresh job set starts a fresh run: drop any partitions and
		// shuffle chunks left over from a previous one.
		w.parts = make(map[partKey][][]minimr.KeyValue)
		w.rbuf = make(map[chunkKey][]minimr.KeyValue)
		w.mu.Unlock()
		return nil, nil
	case "run-map":
		var req mapReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return w.runMap(&req)
	case "fetch-chunk":
		var req chunkFetchReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return nil, w.fetchChunk(&req)
	case "run-reduce":
		var req reduceReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return w.runReduce(&req)
	case "repair-block":
		var req repairReq
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		return w.repairBlock(&req)
	default:
		return nil, fmt.Errorf("cluster: unknown method %q", method)
	}
}

func (w *Worker) job(idx int) (minimr.Job, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if idx < 0 || idx >= len(w.jobs) {
		return minimr.Job{}, fmt.Errorf("cluster: unknown job %d (have %d)", idx, len(w.jobs))
	}
	return w.jobs[idx], nil
}

// runMap gathers the task's input (locally, from a peer, or by degraded
// reconstruction), runs the real map function, and keeps the partitions
// for reducers to pull. Only the partition sizes return to the master.
func (w *Worker) runMap(req *mapReq) (*mapResp, error) {
	job, err := w.job(req.Job)
	if err != nil {
		return nil, err
	}
	data, err := w.gatherInput(req)
	if err != nil {
		return nil, err
	}
	if w.drag > 0 {
		time.Sleep(w.drag)
	}

	var parts [][]minimr.KeyValue
	var bytes []float64
	var out []minimr.KeyValue
	if job.NumReducers == 0 {
		job.Map(data, func(k, v string) { out = append(out, minimr.KeyValue{Key: k, Value: v}) })
	} else {
		buf := w.mapBufs.Get().(*minimr.MapBuffer)
		parts, bytes = buf.Map(job.Map, data, job.NumReducers)
		w.mapBufs.Put(buf)
	}

	w.mu.Lock()
	w.parts[partKey{job: req.Job, task: req.Task}] = parts
	w.mu.Unlock()

	ev := trace.New(w.realNow(), trace.EvWireMap)
	ev.Job, ev.Task, ev.Node, ev.Bytes = req.Job, req.Task, int(w.node), float64(len(data))
	w.emit(ev)
	return &mapResp{PartBytes: bytes, Output: out}, nil
}

// gatherInput produces the task's input block: straight from the local
// store, one fetch from the block's holder, or — degraded — a concurrent
// fan-in of the reconstruction sources followed by a real Reed-Solomon
// decode. A positive Need turns the fan-in into a first-Need-wins race.
func (w *Worker) gatherInput(req *mapReq) ([]byte, error) {
	if len(req.Fetch) == 0 {
		return w.readLocal(req.File, req.Stripe, req.Index)
	}
	if !req.Degraded {
		return w.fetchBlock(req.File, req.Fetch[0])
	}
	if req.Need > 0 && req.Need < len(req.Fetch) {
		return w.gatherHedged(req)
	}

	srcIdx := make([]int, len(req.Fetch))
	sources := make([][]byte, len(req.Fetch))
	errs := make([]error, len(req.Fetch))
	var wg sync.WaitGroup
	for i, f := range req.Fetch {
		srcIdx[i] = f.Index
		wg.Add(1)
		go func(i int, f fetchSpec) {
			defer wg.Done()
			sources[i], errs[i] = w.fetchBlock(req.File, f)
		}(i, f)
	}
	wg.Wait()

	var dead []int
	var cause error
	for i, err := range errs {
		if err != nil {
			dead = append(dead, req.Fetch[i].Node)
			cause = err
		}
	}
	if len(dead) > 0 {
		return nil, &deadPeersError{peers: dead, cause: cause}
	}
	data, err := w.code.ReconstructBlock(req.Index, srcIdx, sources)
	if err != nil {
		return nil, fmt.Errorf("cluster: reconstructing %s stripe %d block %d: %w", req.File, req.Stripe, req.Index, err)
	}
	return data, nil
}

// gatherHedged is the redundant degraded fan-in: race every fetch in
// req.Fetch, decode from the first req.Need that succeed, and cancel the
// losers for real by closing their peer connections. Reed-Solomon
// decoding from any k survivors yields identical bytes, so which sources
// win changes only timing, never data. Fails with *deadPeersError only
// when fewer than Need sources remain reachable.
func (w *Worker) gatherHedged(req *mapReq) ([]byte, error) {
	type result struct {
		i    int
		data []byte
		err  error
	}
	results := make(chan result, len(req.Fetch))
	cancel := make(chan struct{})
	for i, f := range req.Fetch {
		go func(i int, f fetchSpec) {
			data, err := w.fetchBlockCancel(req.File, f, cancel)
			results <- result{i: i, data: data, err: err}
		}(i, f)
	}
	var srcIdx []int
	var sources [][]byte
	var dead []int
	var cause error
	for received := 0; received < len(req.Fetch) && len(sources) < req.Need; received++ {
		r := <-results
		if r.err != nil {
			dead = append(dead, req.Fetch[r.i].Node)
			cause = r.err
			continue
		}
		srcIdx = append(srcIdx, req.Fetch[r.i].Index)
		sources = append(sources, r.data)
	}
	close(cancel) // aborts the losers' in-flight fetches
	if len(sources) < req.Need {
		return nil, &deadPeersError{peers: dead, cause: cause}
	}
	// Arrival order races; decode from a deterministically ordered set.
	sort.Sort(&bySourceIndex{idx: srcIdx, data: sources})
	data, err := w.code.ReconstructBlock(req.Index, srcIdx, sources)
	if err != nil {
		return nil, fmt.Errorf("cluster: reconstructing %s stripe %d block %d: %w", req.File, req.Stripe, req.Index, err)
	}
	return data, nil
}

// bySourceIndex sorts a (source index, block data) pairing by index.
type bySourceIndex struct {
	idx  []int
	data [][]byte
}

func (s *bySourceIndex) Len() int           { return len(s.idx) }
func (s *bySourceIndex) Less(i, j int) bool { return s.idx[i] < s.idx[j] }
func (s *bySourceIndex) Swap(i, j int) {
	s.idx[i], s.idx[j] = s.idx[j], s.idx[i]
	s.data[i], s.data[j] = s.data[j], s.data[i]
}

func (w *Worker) readLocal(file string, stripe, index int) ([]byte, error) {
	w.mu.Lock()
	data, ok := w.store[blockKey{file: file, stripe: stripe, index: index}]
	w.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster: node %d does not store %s stripe %d block %d", w.node, file, stripe, index)
	}
	return data, nil
}

// fetchBlock reads one source block: locally when this node holds it,
// otherwise from the holder's peer server (with retries). Unreachable
// peers come back as *deadPeersError so the master can recover.
func (w *Worker) fetchBlock(file string, f fetchSpec) ([]byte, error) {
	return w.fetchBlockCancel(file, f, nil)
}

// fetchBlockCancel is fetchBlock with cancellation: closing cancel
// aborts an in-flight peer fetch by closing its connection (a nil
// channel never cancels).
func (w *Worker) fetchBlockCancel(file string, f fetchSpec, cancel <-chan struct{}) ([]byte, error) {
	if f.Node == int(w.node) {
		return w.readLocal(file, f.Stripe, f.Index)
	}
	data, err := w.peerCall(f.Addr, peerReq{Op: "block", File: file, Stripe: f.Stripe, Index: f.Index}, cancel)
	if err != nil {
		return nil, peerFailure(f.Node, err)
	}
	ev := trace.New(w.realNow(), trace.EvWireFetch)
	ev.Node, ev.Src, ev.Bytes = int(w.node), f.Node, float64(len(data))
	ev.Name = file
	w.emit(ev)
	return data, nil
}

// partition returns one buffered map-output partition, for a peer's
// fetch or for a reducer on this node alike.
func (w *Worker) partition(job, task, reducer int) ([]minimr.KeyValue, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	parts := w.parts[partKey{job: job, task: task}]
	if reducer < 0 || reducer >= len(parts) {
		return nil, fmt.Errorf("cluster: no partition %d for job %d task %d", reducer, job, task)
	}
	return parts[reducer], nil
}

// fetchChunk pulls one map-output partition into this node's reduce
// buffer (from its own partition store when the mapper ran here).
func (w *Worker) fetchChunk(req *chunkFetchReq) error {
	var recs records
	if req.Node == int(w.node) {
		var err error
		if recs, err = w.partition(req.Job, req.MapTask, req.Reducer); err != nil {
			return err
		}
	} else {
		body, err := w.peerCall(req.Addr, peerReq{Op: "chunk", Job: req.Job, MapTask: req.MapTask, Reducer: req.Reducer}, nil)
		if err != nil {
			return peerFailure(req.Node, err)
		}
		if err := recs.decodeBinary(body); err != nil {
			return fmt.Errorf("cluster: peer %d: %w", req.Node, err)
		}
	}

	w.mu.Lock()
	w.rbuf[chunkKey{job: req.Job, reducer: req.Reducer, mapTask: req.MapTask}] = recs
	w.mu.Unlock()

	var bytes float64
	for _, r := range recs {
		bytes += float64(len(r.Key) + len(r.Value) + 2)
	}
	ev := trace.New(w.realNow(), trace.EvWireShuffle)
	ev.Job, ev.Task, ev.Node, ev.Src, ev.Bytes = req.Job, req.Reducer, int(w.node), req.Node, bytes
	w.emit(ev)
	return nil
}

// runReduce runs the real reduce function over every partition this
// node fetched for the reducer, in deterministic order: keys sorted,
// each key's values by map task index, then in emit order.
func (w *Worker) runReduce(req *reduceReq) (records, error) {
	job, err := w.job(req.Job)
	if err != nil {
		return nil, err
	}

	w.mu.Lock()
	var tasks []int
	for key := range w.rbuf {
		if key.job == req.Job && key.reducer == req.Reducer {
			tasks = append(tasks, key.mapTask)
		}
	}
	sort.Ints(tasks)
	runs := make([][]minimr.KeyValue, len(tasks))
	for i, t := range tasks {
		runs[i] = w.rbuf[chunkKey{job: req.Job, reducer: req.Reducer, mapTask: t}]
	}
	w.mu.Unlock()

	var out records
	minimr.GroupReduce(runs, job.Reduce, func(k, v string) {
		out = append(out, minimr.KeyValue{Key: k, Value: v})
	})

	ev := trace.New(w.realNow(), trace.EvWireReduce)
	ev.Job, ev.Task, ev.Node, ev.N = req.Job, req.Reducer, int(w.node), len(out)
	w.emit(ev)
	return out, nil
}

// repairBlock executes one background repair on the master's command:
// fetch the source blocks from peers (concurrently, like a degraded
// read's fan-in), decode the lost block, and store it — this worker is
// the rebuilt block's new holder, so later local reads and peer fetches
// serve it like any block it registered with.
func (w *Worker) repairBlock(req *repairReq) (*repairResp, error) {
	if len(req.Fetch) == 0 {
		return nil, fmt.Errorf("cluster: repair of %s stripe %d block %d has no sources", req.File, req.Stripe, req.Index)
	}
	srcIdx := make([]int, len(req.Fetch))
	sources := make([][]byte, len(req.Fetch))
	errs := make([]error, len(req.Fetch))
	var wg sync.WaitGroup
	for i, f := range req.Fetch {
		srcIdx[i] = f.Index
		wg.Add(1)
		go func(i int, f fetchSpec) {
			defer wg.Done()
			sources[i], errs[i] = w.fetchBlock(req.File, f)
		}(i, f)
	}
	wg.Wait()

	var dead []int
	var cause error
	for i, err := range errs {
		if err != nil {
			dead = append(dead, req.Fetch[i].Node)
			cause = err
		}
	}
	if len(dead) > 0 {
		return nil, &deadPeersError{peers: dead, cause: cause}
	}
	data, err := w.code.ReconstructBlock(req.Index, srcIdx, sources)
	if err != nil {
		return nil, fmt.Errorf("cluster: repairing %s stripe %d block %d: %w", req.File, req.Stripe, req.Index, err)
	}
	w.mu.Lock()
	w.store[blockKey{file: req.File, stripe: req.Stripe, index: req.Index}] = data
	w.mu.Unlock()

	ev := trace.New(w.realNow(), trace.EvWireRepair)
	ev.Name, ev.Task, ev.N = req.File, req.Stripe, req.Index
	ev.Node, ev.Bytes = int(w.node), float64(len(data))
	w.emit(ev)
	return &repairResp{Bytes: len(data)}, nil
}

// errFetchCancelled marks a peer fetch aborted because its race was
// already won; it is never a peer-health signal.
var errFetchCancelled = errors.New("cluster: fetch cancelled")

// peerFailure maps a failed peer call: a failure the peer reported is
// an application error; any other means the peer is unreachable, which
// the master feeds into failure recovery.
func peerFailure(node int, err error) error {
	var re *remoteError
	if errors.As(err, &re) {
		return fmt.Errorf("cluster: peer %d: %s", node, re.msg)
	}
	return &deadPeersError{peers: []int{node}, cause: err}
}

// peerCall performs one one-shot request against a peer's server and
// returns the response body, with retries: workers may be mid-
// registration when the first fetches fly. A failure the peer reports
// comes back as *remoteError and is not retried. Closing cancel skips
// further retries and closes the in-flight connection (a nil channel
// never cancels).
func (w *Worker) peerCall(addr string, req peerReq, cancel <-chan struct{}) ([]byte, error) {
	var lastErr error
	delay := 25 * time.Millisecond
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(delay)
			select {
			case <-cancel:
				t.Stop()
				return nil, errFetchCancelled
			case <-t.C:
			}
			delay *= 2
		}
		body, err := w.peerCallOnce(addr, req, cancel)
		var re *remoteError
		if err == nil || errors.As(err, &re) {
			return body, err
		}
		select {
		case <-cancel:
			return nil, errFetchCancelled
		default:
		}
		lastErr = err
	}
	return nil, lastErr
}

func (w *Worker) peerCallOnce(addr string, req peerReq, cancel <-chan struct{}) ([]byte, error) {
	if addr == "" {
		return nil, fmt.Errorf("cluster: peer has no address")
	}
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if cancel != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cancel:
				c.Close() // unblocks any in-flight read or write
			case <-stop:
			}
		}()
	}
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeFrame(c, &frame{Kind: "peer", Body: mustJSON(req)}); err != nil {
		return nil, err
	}
	var f frame
	if err := readFrame(c, &f); err != nil {
		return nil, err
	}
	if f.Error != "" {
		return nil, &remoteError{method: "peer " + req.Op, msg: f.Error}
	}
	return f.Body, nil
}

func (w *Worker) peerAcceptLoop() {
	for {
		c, err := w.peerLn.Accept()
		if err != nil {
			return
		}
		go w.servePeer(c)
	}
}

// servePeer answers one one-shot peer request: a stored block or a
// buffered map-output partition.
func (w *Worker) servePeer(c net.Conn) {
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	var f frame
	if err := readFrame(c, &f); err != nil {
		return
	}
	var req peerReq
	if err := json.Unmarshal(f.Body, &req); err != nil {
		return
	}
	resp := frame{Kind: "peer"}
	switch req.Op {
	case "block":
		data, err := w.readLocal(req.File, req.Stripe, req.Index)
		if err != nil {
			resp.Error = err.Error()
		} else {
			resp.Body = data
		}
	case "chunk":
		kvs, err := w.partition(req.Job, req.MapTask, req.Reducer)
		if err != nil {
			resp.Error = err.Error()
		} else {
			resp.Body = appendRecords(nil, kvs)
		}
	default:
		resp.Error = fmt.Sprintf("unknown peer op %q", req.Op)
	}
	writeFrame(c, &resp)
}
