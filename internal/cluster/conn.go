package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

var (
	// errConnClosed fails calls whose connection died first.
	errConnClosed = errors.New("cluster: connection closed")
	// errRPCTimeout fails calls that outlived their deadline.
	errRPCTimeout = errors.New("cluster: rpc timed out")
)

// remoteError is a failure string reported by the far side of an RPC,
// with the node IDs it implicates (empty for plain application errors).
type remoteError struct {
	method string
	msg    string
	dead   []int
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("cluster: %s: %s", e.method, e.msg)
}

// rpcConn multiplexes one persistent connection: concurrent outgoing
// calls (matched to responses by sequence number), incoming requests
// (served on their own goroutines via serve), and one-way frames such as
// heartbeats and trace events (routed to notify). Both directions share
// the connection, so a worker can serve run-map while its heartbeats
// keep flowing.
type rpcConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu sync.Mutex // serializes writeFrame on bw
	bw  *bufio.Writer

	// serve handles an incoming request frame; nil rejects all requests.
	// It runs on a fresh goroutine per request. A nil response with nil
	// error sends an empty ack; any other response is encoded with
	// encodeBody.
	serve func(method string, body []byte) (any, error)
	// notify receives non-RPC frames (hb, event); may be nil. It runs on
	// the reader goroutine, so it must not block.
	notify func(f *frame)
	// onClose runs once when the connection dies, after pending calls
	// fail; may be nil.
	onClose func(err error)

	mu      sync.Mutex
	pending map[uint64]chan *frame
	nextSeq uint64
	closed  bool
	err     error
	done    chan struct{}
}

func newRPCConn(c net.Conn) *rpcConn {
	return &rpcConn{
		c:       c,
		br:      bufio.NewReader(c),
		bw:      bufio.NewWriter(c),
		pending: make(map[uint64]chan *frame),
		done:    make(chan struct{}),
	}
}

// start launches the reader loop. Set serve/notify/onClose first.
func (rc *rpcConn) start() {
	go rc.readLoop()
}

func (rc *rpcConn) readLoop() {
	for {
		f := new(frame)
		if err := readFrame(rc.br, f); err != nil {
			rc.close(err)
			return
		}
		switch f.Kind {
		case "resp":
			rc.mu.Lock()
			ch := rc.pending[f.Seq]
			delete(rc.pending, f.Seq)
			rc.mu.Unlock()
			if ch != nil {
				ch <- f
			}
		case "req":
			go rc.serveReq(f)
		default:
			if rc.notify != nil {
				rc.notify(f)
			}
		}
	}
}

// serveReq runs one incoming request through the serve handler and
// writes the response, copying implicated peers into the Dead field.
func (rc *rpcConn) serveReq(f *frame) {
	resp := &frame{Kind: "resp", Seq: f.Seq}
	if rc.serve == nil {
		resp.Error = "no request handler"
	} else if out, err := rc.serve(f.Method, f.Body); err != nil {
		resp.Error = err.Error()
		var dp *deadPeersError
		if errors.As(err, &dp) {
			resp.Dead = dp.peers
		}
	} else if out != nil {
		b, merr := encodeBody(out)
		if merr != nil {
			resp.Error = fmt.Sprintf("encoding %s response: %v", f.Method, merr)
		} else {
			resp.Body = b
		}
	}
	if err := rc.send(resp); err != nil {
		rc.close(err)
	}
}

// send writes one frame, serialized against concurrent senders.
func (rc *rpcConn) send(f *frame) error {
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	if err := writeFrame(rc.bw, f); err != nil {
		return err
	}
	return rc.bw.Flush()
}

// call performs one RPC: req is encoded as the request body, the
// response body (if any) is decoded into resp (may be nil), each with
// its type's codec (encodeBody, decodeBody). Returns
// *remoteError for far-side failures, errRPCTimeout or errConnClosed
// for transport ones.
func (rc *rpcConn) call(method string, req, resp any, timeout time.Duration) error {
	body, err := encodeBody(req)
	if err != nil {
		return fmt.Errorf("cluster: encoding %s request: %w", method, err)
	}

	ch := make(chan *frame, 1)
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return errConnClosed
	}
	rc.nextSeq++
	seq := rc.nextSeq
	rc.pending[seq] = ch
	rc.mu.Unlock()

	if err := rc.send(&frame{Kind: "req", Seq: seq, Method: method, Body: body}); err != nil {
		rc.mu.Lock()
		delete(rc.pending, seq)
		rc.mu.Unlock()
		rc.close(err)
		return errConnClosed
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case f := <-ch:
		if f == nil {
			return errConnClosed // channel closed by teardown
		}
		if f.Error != "" {
			return &remoteError{method: method, msg: f.Error, dead: f.Dead}
		}
		if resp != nil && len(f.Body) > 0 {
			if err := decodeBody(f.Body, resp); err != nil {
				return fmt.Errorf("cluster: decoding %s response: %w", method, err)
			}
		}
		return nil
	case <-timer.C:
		rc.mu.Lock()
		delete(rc.pending, seq)
		rc.mu.Unlock()
		return fmt.Errorf("%w: %s after %v", errRPCTimeout, method, timeout)
	case <-rc.done:
		return errConnClosed
	}
}

// close tears the connection down once: pending calls fail, the
// underlying conn is closed, and onClose fires.
func (rc *rpcConn) close(err error) {
	rc.mu.Lock()
	if rc.closed {
		rc.mu.Unlock()
		return
	}
	rc.closed = true
	rc.err = err
	pending := rc.pending
	rc.pending = make(map[uint64]chan *frame)
	close(rc.done)
	rc.mu.Unlock()

	rc.c.Close() // best-effort: the peer may have closed first
	for _, ch := range pending {
		close(ch)
	}
	if rc.onClose != nil {
		rc.onClose(err)
	}
}

// wait returns a channel closed when the connection dies.
func (rc *rpcConn) wait() <-chan struct{} { return rc.done }
