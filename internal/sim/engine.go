// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock and an event queue ordered by (time, insertion sequence).
// It replaces the CSIM20 library the paper's simulator was built on.
//
// The engine is single-goroutine by design: all simulated "processes"
// (master, slaves, network flows) are event callbacks. Determinism — the
// same seed always yields the same schedule — is guaranteed by breaking
// time ties with a monotone sequence number.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Event is a scheduled callback. Cancel it via Engine.Cancel or move it
// via Engine.Reschedule.
type Event struct {
	at    Time
	seq   uint64
	index int // heap slot, -1 when not queued
	fn    func()
}

// At returns the time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Scheduled reports whether the event is still pending.
func (e *Event) Scheduled() bool { return e.index >= 0 }

// Engine is the simulation core. The zero value is not usable; call New.
type Engine struct {
	now    Time
	seq    uint64
	queue  []*Event // 4-ary min-heap on (at, seq)
	nsteps uint64
}

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Steps returns how many events have been dispatched; useful in tests and
// for detecting runaway simulations.
func (e *Engine) Steps() uint64 { return e.nsteps }

// Schedule queues fn to run after delay seconds of virtual time. A negative
// or NaN delay panics: it would corrupt the causal order and always
// indicates a bug in the caller.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	checkDelay(delay)
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt queues fn at absolute virtual time t (>= Now).
func (e *Engine) ScheduleAt(t Time, fn func()) *Event {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.push(ev)
	return ev
}

// Reschedule moves ev to fire after delay seconds of virtual time. It
// draws a fresh sequence number exactly as Schedule would, so the
// resulting (time, seq) order — and hence the dispatch order — is the
// same as Cancel(ev) followed by Schedule(delay, fn), without releasing
// the event or allocating a new one. An event that is no longer queued
// (fired or cancelled) is queued again with its original callback.
func (e *Engine) Reschedule(ev *Event, delay float64) {
	checkDelay(delay)
	ev.at = e.now + delay
	ev.seq = e.seq
	e.seq++
	if ev.index < 0 {
		e.push(ev)
		return
	}
	if !e.down(ev.index) {
		e.up(ev.index)
	}
}

// Cancel removes a pending event from the queue in O(log n). Cancelling
// an already-fired or already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	e.remove(ev.index)
}

// Step dispatches the next event, advancing the clock. It returns false
// if no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.dispatch(e.remove(0))
	return true
}

// Run dispatches events until the queue is empty and returns the final
// clock value.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil dispatches events with time <= t, then advances the clock to t.
// Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t Time) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.dispatch(e.remove(0))
	}
	if t > e.now {
		e.now = t
	}
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

func (e *Engine) dispatch(ev *Event) {
	e.now = ev.at
	e.nsteps++
	ev.fn()
}

func checkDelay(delay float64) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
}

// The queue is a 4-ary min-heap: slot i's children are 4i+1..4i+4. A wider
// fan-out halves the tree depth of a binary heap, so a sift touches fewer
// cache lines, at the cost of up to three extra comparisons per level on
// the way down. Every queued event's index field is its current slot.

// less orders events by (time, seq). Sequence numbers are unique, so the
// order is total and the dispatch order does not depend on the heap shape.
func less(a, b *Event) bool {
	//lint:ignore floateq exact comparison is the point: equal times fall through to the monotone seq tie-break
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev *Event) {
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
}

// remove takes the event in slot i out of the queue: the last event
// fills the hole and is sifted to its place.
func (e *Engine) remove(i int) *Event {
	q := e.queue
	ev := q[i]
	last := len(q) - 1
	if i != last {
		q[i] = q[last]
		q[i].index = i
	}
	q[last] = nil
	e.queue = q[:last]
	if i != last && !e.down(i) {
		e.up(i)
	}
	ev.index = -1
	return ev
}

// up sifts the event in slot i toward the root.
func (e *Engine) up(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		p := (i - 1) / 4
		if !less(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down sifts the event in slot i toward the leaves and reports whether it
// moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(q[j], q[m]) {
				m = j
			}
		}
		if !less(q[m], ev) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = ev
	ev.index = i
	return i > start
}
