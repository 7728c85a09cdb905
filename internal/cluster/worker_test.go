package cluster

import (
	"net"
	"strings"
	"testing"

	"degradedfirst/internal/minimr"
)

// TestMissingPartitionIsAnError pins the one partition lookup behind
// both shuffle paths: a partition that is not buffered fails the fetch
// whether the reducer runs on the mapper's node or pulls from a peer,
// instead of standing in as an empty chunk (or panicking on a negative
// reducer index from the network).
func TestMissingPartitionIsAnError(t *testing.T) {
	w := &Worker{
		node:  2,
		parts: map[partKey][][]minimr.KeyValue{{job: 0, task: 5}: make([][]minimr.KeyValue, 2)},
		rbuf:  make(map[chunkKey][]minimr.KeyValue),
	}
	missing := []chunkFetchReq{
		{Job: 0, MapTask: 5, Reducer: 2}, // past the task's partitions
		{Job: 0, MapTask: 5, Reducer: -1},
		{Job: 0, MapTask: 6, Reducer: 0}, // a task never mapped here
		{Job: 1, MapTask: 5, Reducer: 0},
	}
	for _, req := range missing {
		req.Node = int(w.node)
		if err := w.fetchChunk(&req); err == nil || !strings.Contains(err.Error(), "no partition") {
			t.Fatalf("local fetch of %+v: err = %v, want a missing-partition error", req, err)
		}
		if len(w.rbuf) != 0 {
			t.Fatalf("local fetch of %+v stored a chunk", req)
		}

		cli, srv := net.Pipe()
		go w.servePeer(srv)
		peer := peerReq{Op: "chunk", Job: req.Job, MapTask: req.MapTask, Reducer: req.Reducer}
		if err := writeFrame(cli, &frame{Kind: "peer", Body: mustJSON(peer)}); err != nil {
			t.Fatal(err)
		}
		var f frame
		if err := readFrame(cli, &f); err != nil {
			t.Fatalf("peer fetch of %+v: %v", req, err)
		}
		cli.Close()
		if !strings.Contains(f.Error, "no partition") || len(f.Body) != 0 {
			t.Fatalf("peer fetch of %+v answered err %q with %d body bytes, want a missing-partition error",
				req, f.Error, len(f.Body))
		}
	}
}
