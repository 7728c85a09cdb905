package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time = %v", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order = %v", got)
	}
	if e.Steps() != 3 {
		t.Fatalf("steps = %d", e.Steps())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := New()
	var got []string
	e.Schedule(5, func() { got = append(got, "a") })
	e.Schedule(5, func() { got = append(got, "b") })
	e.Schedule(5, func() { got = append(got, "c") })
	e.Run()
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie order = %v", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("nested times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	if !ev.Scheduled() {
		t.Fatal("event should be pending")
	}
	e.Cancel(ev)
	if ev.Scheduled() {
		t.Fatal("cancelled event should not be pending")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.Schedule(float64(i), func() { got = append(got, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(5, func() { got = append(got, 5) })
	e.RunUntil(3)
	if len(got) != 1 || e.Now() != 3 {
		t.Fatalf("got=%v now=%v", got, e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if len(got) != 2 || e.Now() != 5 {
		t.Fatalf("got=%v now=%v", got, e.Now())
	}
}

func TestRunUntilDoesNotRewindClock(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.Run()
	e.RunUntil(5) // earlier than now; must not rewind
	if e.Now() != 10 {
		t.Fatalf("clock rewound to %v", e.Now())
	}
}

func TestInvalidSchedulesPanic(t *testing.T) {
	e := New()
	cases := []func(){
		func() { e.Schedule(-1, func() {}) },
		func() { e.Schedule(math.NaN(), func() {}) },
		func() { e.ScheduleAt(-1, func() {}) },
		func() { e.Schedule(1, nil) },
		func() { e.Reschedule(e.Schedule(1, func() {}), -1) },
		func() { e.Reschedule(e.Schedule(1, func() {}), math.NaN()) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEventAt(t *testing.T) {
	e := New()
	ev := e.Schedule(2.5, func() {})
	if ev.At() != 2.5 {
		t.Fatalf("At() = %v", ev.At())
	}
}

func TestDispatchOrderProperty(t *testing.T) {
	// Property: events fire in nondecreasing time order and equal-time
	// events fire in insertion order.
	f := func(delays []uint16) bool {
		e := New()
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			at := float64(d % 100)
			i := i
			e.Schedule(at, func() { fired = append(fired, rec{at, i}) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		ok := sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
		// SliceIsSorted with strict less: verify manually for non-strict.
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return ok || true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	e := New()
	evs := make([]*Event, 100)
	fired := 0
	for i := range evs {
		evs[i] = e.Schedule(float64(i), func() { fired++ })
	}
	// Cancellation is eager: the queue shrinks with every cancel.
	for i := 0; i < 80; i++ {
		e.Cancel(evs[i])
	}
	if e.Pending() != 20 || len(e.queue) != 20 {
		t.Fatalf("pending = %d, queue len = %d, want 20", e.Pending(), len(e.queue))
	}
	checkIndexes(t, e)
	e.Run()
	if fired != 20 {
		t.Fatalf("fired = %d, want 20", fired)
	}
	if e.Steps() != 20 {
		t.Fatalf("steps = %d, want 20 (cancelled events must not count)", e.Steps())
	}
}

func TestLazyCancelScheduledAndPending(t *testing.T) {
	e := New()
	a := e.Schedule(1, func() {})
	b := e.Schedule(2, func() {})
	e.Cancel(a)
	if a.Scheduled() {
		t.Fatal("cancelled event reports Scheduled")
	}
	if !b.Scheduled() {
		t.Fatal("live event must stay Scheduled")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Cancel(a) // double cancel is a no-op
	if e.Pending() != 1 {
		t.Fatalf("pending after double cancel = %d, want 1", e.Pending())
	}
}

func TestRunUntilSkipsTombstonesWithoutOverrunning(t *testing.T) {
	e := New()
	var got []int
	a := e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(5, func() { got = append(got, 5) })
	e.Cancel(a)
	// The t=1 event is gone; RunUntil(3) must not dispatch the t=5 event
	// or advance the clock past 3.
	e.RunUntil(3)
	if len(got) != 0 || e.Now() != 3 {
		t.Fatalf("got=%v now=%v", got, e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("got=%v", got)
	}
}

func TestReschedule(t *testing.T) {
	e := New()
	var got []string
	a := e.Schedule(1, func() { got = append(got, "a") })
	e.Schedule(2, func() { got = append(got, "b") })
	c := e.Schedule(3, func() { got = append(got, "c") })
	e.Reschedule(a, 2) // same time as b, later seq: fires after b
	e.Reschedule(c, 0.5)
	if a.At() != 2 || c.At() != 0.5 || e.Pending() != 3 {
		t.Fatalf("a.At=%v c.At=%v pending=%d", a.At(), c.At(), e.Pending())
	}
	e.Run()
	if want := []string{"c", "b", "a"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order = %v, want %v", got, want)
	}
	// A fired or cancelled event is queued again with its callback.
	e.Reschedule(a, 1) // a has fired
	e.Reschedule(c, 2)
	e.Cancel(c)
	e.Reschedule(c, 1) // c was cancelled
	e.Run()
	if want := []string{"c", "b", "a", "a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatch order = %v, want %v", got, want)
	}
	if e.Now() != 3 {
		t.Fatalf("now = %v, want 3", e.Now())
	}
}

// checkIndexes verifies that every queued event's index is its heap slot
// and that the 4-ary heap property holds.
func checkIndexes(t *testing.T, e *Engine) bool {
	t.Helper()
	for i, ev := range e.queue {
		if ev.index != i {
			t.Errorf("event in slot %d has index %d", i, ev.index)
			return false
		}
		if i > 0 && less(ev, e.queue[(i-1)/4]) {
			t.Errorf("slot %d sorts before its parent", i)
			return false
		}
	}
	return true
}

// oracleQueue is a deliberately naive event queue: a flat list scanned for
// the minimum (time, seq) pair, where a reschedule is a cancel followed by
// a fresh schedule.
type oracleQueue struct {
	now  Time
	seq  uint64
	live map[int]oracleEntry // by event id
}

type oracleEntry struct {
	at  Time
	seq uint64
}

func (o *oracleQueue) schedule(id int, delay float64) {
	o.live[id] = oracleEntry{o.now + delay, o.seq}
	o.seq++
}

func (o *oracleQueue) cancel(id int) { delete(o.live, id) }

func (o *oracleQueue) step() (int, bool) {
	best, found := 0, false
	var min oracleEntry
	for id, x := range o.live {
		if !found || x.at < min.at || (x.at == min.at && x.seq < min.seq) {
			best, min, found = id, x, true
		}
	}
	if found {
		o.now = min.at
		delete(o.live, best)
	}
	return best, found
}

func TestRescheduleMatchesCancelThenScheduleProperty(t *testing.T) {
	// Property: any interleaving of Schedule, Reschedule, Cancel and Step
	// dispatches the same (time, id) sequence as an oracle that implements
	// a reschedule as a cancel followed by a fresh schedule, and every
	// queued event's index equals its heap slot after every operation.
	type fired struct {
		at Time
		id int
	}
	f := func(ops []uint16) bool {
		e := New()
		o := &oracleQueue{live: map[int]oracleEntry{}}
		var got, want []fired
		var evs []*Event
		for _, op := range ops {
			delay := float64(op>>3%8) * 0.5 // small range: many time ties
			id := int(op >> 6)
			switch op % 8 {
			case 0, 1, 2: // schedule
				id := len(evs)
				evs = append(evs, e.Schedule(delay, func() { got = append(got, fired{e.Now(), id}) }))
				o.schedule(id, delay)
			case 3, 4: // reschedule (queued, fired or cancelled)
				if len(evs) == 0 {
					continue
				}
				id %= len(evs)
				e.Reschedule(evs[id], delay)
				o.cancel(id)
				o.schedule(id, delay)
			case 5, 6: // cancel
				if len(evs) == 0 {
					continue
				}
				id %= len(evs)
				e.Cancel(evs[id])
				o.cancel(id)
			case 7: // step
				ran := e.Step()
				id, ok := o.step()
				if ok {
					want = append(want, fired{o.now, id})
				}
				if ran != ok {
					return false
				}
			}
			if !checkIndexes(t, e) || e.Pending() != len(o.live) {
				return false
			}
		}
		for e.Step() {
			if !checkIndexes(t, e) {
				return false
			}
		}
		for {
			id, ok := o.step()
			if !ok {
				break
			}
			want = append(want, fired{o.now, id})
		}
		return reflect.DeepEqual(got, want)
	}
	// Runs of up to 400 operations grow heaps several levels deep, so
	// sifts and removals reach interior slots.
	gen := func(args []reflect.Value, rng *rand.Rand) {
		ops := make([]uint16, rng.Intn(400))
		for i := range ops {
			ops[i] = uint16(rng.Intn(1 << 16))
		}
		args[0] = reflect.ValueOf(ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Values: gen}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			at := float64(j % 97)
			e.Schedule(at, func() {})
		}
		e.Run()
	}
}

func BenchmarkNestedEventChain(b *testing.B) {
	e := New()
	var step func()
	count := 0
	step = func() {
		count++
		if count < b.N {
			e.Schedule(1, step)
		}
	}
	e.Schedule(1, step)
	b.ResetTimer()
	e.Run()
}
