package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"math"
)

// digest hashes the virtual outcome of one round: for every op, in
// order, its name, makespan, bytes moved and wasted, each job's
// submission, first launch, finish and task counts, the healer's
// statistics, and the counts of the trace events that follow the virtual
// clock. Host time never enters it, so it is identical between traced and
// untraced runs and between repeated runs of the same program and seed.
func digest(ops []op, outs []outcome, counts []*countSink) string {
	h := sha256.New()
	for i, o := range ops {
		writeString(h, o.name)
		if i < len(outs) {
			writeOutcome(h, outs[i])
		}
		if i < len(counts) && counts[i] != nil {
			for _, c := range counts[i].virtualCounts() {
				writeString(h, c)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sameOutcome compares two outcomes bit for bit.
func sameOutcome(a, b outcome) bool {
	ha, hb := sha256.New(), sha256.New()
	writeOutcome(ha, a)
	writeOutcome(hb, b)
	return string(ha.Sum(nil)) == string(hb.Sum(nil))
}

func writeOutcome(w hash.Hash, o outcome) {
	writeFloats(w, o.makespan, o.bytesMoved, o.wastedBytes, float64(len(o.jobs)))
	for _, j := range o.jobs {
		writeFloats(w, j.submit, j.firstLaunch, j.finish, float64(j.tasks), float64(j.reduces))
	}
	rs := o.repair
	if rs == nil {
		writeFloats(w, -1)
		return
	}
	writeFloats(w, float64(rs.StripesQueued), float64(rs.Unrepairable), float64(rs.BlocksRepaired),
		float64(rs.LocalRepairs), float64(rs.GlobalRepairs), rs.RepairBytes,
		rs.FirstRepairAt, rs.FullRedundancyAt, float64(len(rs.AtRisk)))
	for _, p := range rs.AtRisk {
		writeFloats(w, p.T, float64(p.Lost))
	}
}

// writeFloats and writeString feed a hash, whose writes never fail.
func writeFloats(w hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		w.Write(b[:])
	}
}

func writeString(w hash.Hash, s string) {
	writeFloats(w, float64(len(s)))
	io.WriteString(w, s)
}
