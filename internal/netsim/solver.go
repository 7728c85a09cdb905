// Incremental fluid solver. Progressive filling is restructured so the
// per-iteration work is driven by per-link active-flow indexes instead of
// sweeps over every flow and every link:
//
//   - Each finite link keeps the list of contending flows crossing it, so
//     the freeze step visits only the saturated link's flows.
//   - Per-flow rate accumulation (`f.rate += inc` per iteration) is
//     replaced by one running water level: the partial sums are the same
//     float64 additions in the same order, so assigning `f.rate = level`
//     at freeze time is bitwise identical to the reference solver.
//   - Frozen flags are solve-epoch stamps, eliminating the O(flows) reset
//     pass.
//
// Every flow's completion is rescheduled on every solve, exactly like the
// reference solver, rather than left in place when a flow's rate (or even
// its bitwise completion time) is unchanged. Keeping an event preserves
// its old sequence number, and equal completion times are common (equal
// block sizes at equal rates), so a kept event would fire *before* a
// same-instant rescheduled one where the reference schedule fires it
// after — flipping the finish order inside a time tie and sending every
// subsequent advance down a different rounding path. The reference
// cancels each event and schedules a new one; here each flow keeps one
// event and sim.Engine.Reschedule moves it in place. Reschedule draws its
// sequence number exactly as Schedule does, and the loop makes one draw
// per flow in the same flow order, so every (time, seq) pair — and
// therefore the dispatch order — is identical to the reference engine
// run, without an allocation or a heap removal per flow.
//
// Equivalence with RefRecompute is pinned by TestIncrementalMatchesReference
// and FuzzNetsimEquivalence.

package netsim

import "math"

// indexFlow registers a contending fluid flow in the active list of each
// finite link it crosses, recording its position for O(1) removal.
// Unlimited links never constrain the solve and are not indexed.
func (n *Net) indexFlow(f *Flow) {
	if len(f.path) <= len(f.linkPosBuf) {
		f.linkPos = f.linkPosBuf[:len(f.path)]
	} else {
		f.linkPos = make([]int, len(f.path))
	}
	for i, l := range f.path {
		if !l.finite {
			f.linkPos[i] = -1
			continue
		}
		if len(l.active) == 0 && !l.inActive {
			l.inActive = true
			n.activeLinks = append(n.activeLinks, l)
		}
		f.linkPos[i] = len(l.active)
		l.active = append(l.active, f)
	}
	n.ncontending++
}

// unindexFlow removes f from its links' active lists by swapping with the
// last entry; the moved flow's recorded position is patched (paths are a
// handful of links — 2 per tier plus NICs and core — all distinct).
func (n *Net) unindexFlow(f *Flow) {
	for i, l := range f.path {
		pos := f.linkPos[i]
		if pos < 0 {
			continue
		}
		last := len(l.active) - 1
		moved := l.active[last]
		l.active[pos] = moved
		l.active[last] = nil
		l.active = l.active[:last]
		if moved != f {
			for j, ml := range moved.path {
				if ml == l {
					moved.linkPos[j] = pos
					break
				}
			}
		}
	}
	f.linkPos = nil
	n.ncontending--
}

// pruneActiveLinks drops links whose active lists have emptied and returns
// the live set. Order is first-activation order, which only affects the
// order saturated links are visited — freezing is commutative, so the
// solve result is unchanged.
func (n *Net) pruneActiveLinks() []*link {
	kept := n.activeLinks[:0]
	for _, l := range n.activeLinks {
		if len(l.active) == 0 {
			l.inActive = false
			continue
		}
		kept = append(kept, l)
	}
	for i := len(kept); i < len(n.activeLinks); i++ {
		n.activeLinks[i] = nil
	}
	n.activeLinks = kept
	return kept
}

// incRecompute is the incremental fluid solver; see the package comment
// above for the restructuring and the bitwise-equivalence argument.
func (n *Net) incRecompute() {
	now := n.eng.Now()
	// Advance progress at the old rates. This full pass is kept: advancing
	// a flow in one step versus several intermediate steps rounds
	// differently, so lazily advancing only touched flows would drift off
	// the reference schedule.
	for _, f := range n.flows {
		//lint:ignore floateq exact match is required: only a bitwise-equal timestamp guarantees rate*(now-updateTime) is exactly rate*0
		if f.updateTime == now {
			// Same-instant recompute: the advance would subtract rate*0,
			// which leaves `remaining` bitwise unchanged, so skip the
			// arithmetic. Same-instant cascades (batch admissions,
			// zero-byte completions) make this the common case.
			continue
		}
		if f.rate > 0 && !math.IsInf(f.rate, 1) {
			f.remaining -= f.rate * (now - f.updateTime)
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.updateTime = now
	}
	// Progressive filling over the link indexes. The filling loop works on
	// a compacting copy of the active set: a link whose flows have all
	// frozen can never bound a later water-level increment or freeze
	// anything again, so it is dropped instead of re-skipped every
	// iteration — at 10k-node scale most links freeze their flows in the
	// first iteration and the sweeps shrink accordingly. Dropping is
	// bitwise-neutral: min() over shares is order-independent, residual
	// updates touch only links with unfrozen flows, and freezing is
	// commutative.
	n.epoch++
	epoch := n.epoch
	links := n.pruneActiveLinks()
	work := n.workLinks[:0]
	for _, l := range links {
		l.residual = l.capacity
		l.unfrozen = len(l.active)
		work = append(work, l)
	}
	n.workLinks = work
	unfrozen := n.ncontending
	level := 0.0
	for unfrozen > 0 {
		inc := math.Inf(1)
		for _, l := range work {
			if l.unfrozen == 0 {
				continue
			}
			if share := l.residual / float64(l.unfrozen); share < inc {
				inc = share
			}
		}
		if math.IsInf(inc, 1) {
			// Remaining flows cross only unlimited links.
			for _, f := range n.flows {
				if len(f.path) > 0 && f.frozenEpoch != epoch {
					f.rate = math.Inf(1)
					f.frozenEpoch = epoch
				}
			}
			break
		}
		level += inc
		for _, l := range work {
			if l.unfrozen > 0 {
				l.residual -= inc * float64(l.unfrozen)
			}
		}
		// Freeze the flows crossing saturated links, compacting the
		// working set as links run out of unfrozen flows. A kept link
		// whose count a later freeze zeroes lingers one iteration and is
		// dropped on the next sweep.
		kept := work[:0]
		for _, l := range work {
			if l.unfrozen > 0 && l.residual <= 1e-9*l.capacity {
				for _, g := range l.active {
					if g.frozenEpoch == epoch {
						continue
					}
					g.frozenEpoch = epoch
					g.rate = level
					unfrozen--
					for _, gl := range g.path {
						if gl.finite {
							gl.unfrozen--
						}
					}
				}
			}
			if l.unfrozen > 0 {
				kept = append(kept, l)
			}
		}
		for i := len(kept); i < len(work); i++ {
			work[i] = nil
		}
		work = kept
	}
	// Reschedule every completion in place (see the header comment for
	// why events are never kept at their old sequence number).
	for _, f := range n.flows {
		var dt float64
		switch {
		case len(f.path) == 0:
			dt = 0 // node-local transfers complete immediately
		case f.remaining <= 0:
			dt = 0
		case math.IsInf(f.rate, 1):
			dt = 0
		case f.rate <= 0:
			// Starved; a later recompute schedules it again.
			n.eng.Cancel(f.ev)
			f.ev = nil
			continue
		default:
			dt = f.remaining / f.rate
		}
		if f.ev != nil {
			n.eng.Reschedule(f.ev, dt)
		} else {
			f.ev = n.eng.Schedule(dt, f.finishFn)
		}
	}
	n.emitRateChanges()
}

// noteRate reports f's rate through Hooks.RateChange if it changed since
// the last report.
func (n *Net) noteRate(f *Flow) {
	if n.hooks.RateChange == nil {
		return
	}
	//lint:ignore floateq rate-change hooks fire on exact allocation changes; tolerance would suppress real reallocations
	if f.rate != f.prevRate {
		f.prevRate = f.rate
		n.hooks.RateChange(f)
	}
}

// emitRateChanges reports every changed rate after a solve, in flow
// admission order.
func (n *Net) emitRateChanges() {
	if n.hooks.RateChange == nil {
		return
	}
	for _, f := range n.flows {
		n.noteRate(f)
	}
}
