//go:build !simrefqueue

package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// modelHeap is an in-test reference implementation of the event queue's
// total order: a straight container/heap over (at, seq). The property
// tests below drive the calendar queue and this model with identical
// randomized schedules and demand identical pop sequences.
type modelHeap []*event

func (h modelHeap) Len() int           { return len(h) }
func (h modelHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h modelHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *modelHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *modelHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// queueHarness mirrors how Sim drives the queue: time only advances to
// the timestamp of the event just popped, and pushes happen at the
// current time.
type queueHarness struct {
	q     equeue
	model modelHeap
	now   Time
	seq   uint64
}

func (h *queueHarness) push(at Time, dead bool) {
	e := &event{at: at, seq: h.seq, dead: dead}
	m := &event{at: at, seq: h.seq, dead: dead}
	h.seq++
	h.q.push(e, h.now)
	heap.Push(&h.model, m)
}

// popBoth pops one event from each implementation and checks they agree
// on (at, seq, dead); reports false when both are empty.
func (h *queueHarness) popBoth(t *testing.T, limit Time) bool {
	t.Helper()
	got := h.q.pop(h.now, limit)
	var want *event
	if len(h.model) > 0 && h.model[0].at <= limit && limit >= h.now {
		want = heap.Pop(&h.model).(*event)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("pop mismatch at now=%v limit=%v: calendar=%v model=%v", h.now, limit, got, want)
	}
	if got == nil {
		return false
	}
	if got.at != want.at || got.seq != want.seq || got.dead != want.dead {
		t.Fatalf("pop order diverged: calendar (at=%v seq=%d) model (at=%v seq=%d)",
			got.at, got.seq, want.at, want.seq)
	}
	h.now = got.at
	return true
}

// TestQueuePropertyVsHeap drives randomized seeded schedules — bursts
// at the current timestamp, near-future wakes, far timers beyond the
// calendar window, and cancellations — through the calendar queue and
// the reference heap, asserting identical (at, seq) pop order
// throughout. This is the determinism contract the replay goldens rest
// on, exercised directly at the queue layer.
func TestQueuePropertyVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &queueHarness{}
		h.q.init()
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 3: // same-timestamp burst (the curr fast lane)
				for i := 0; i < rng.Intn(4)+1; i++ {
					h.push(h.now, rng.Intn(8) == 0)
				}
			case r < 7: // near-future wake within the calendar window
				h.push(h.now+Time(rng.Int63n(int64(calendarWindow))), rng.Intn(8) == 0)
			case r < 8: // far timer beyond the window
				h.push(h.now+calendarWindow+Time(rng.Int63n(int64(100*Millisecond))), false)
			default: // drain a few
				for i := 0; i < rng.Intn(6)+1; i++ {
					if !h.popBoth(t, maxTime) {
						break
					}
				}
			}
		}
		for h.popBoth(t, maxTime) {
		}
		if len(h.model) != 0 {
			t.Fatalf("seed %d: model has %d leftovers after calendar drained", seed, len(h.model))
		}
	}
}

// TestQueueLimitPops checks the deadline-bounded pop used by RunUntil:
// pops stop exactly at the limit, events beyond it stay queued, and a
// limit in the past yields nothing.
func TestQueueLimitPops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &queueHarness{}
	h.q.init()
	for i := 0; i < 500; i++ {
		h.push(Time(rng.Int63n(int64(200*Microsecond))), false)
	}
	if e := h.q.pop(h.now, -1); e != nil {
		t.Fatalf("pop with limit before now returned %v", e)
	}
	limit := Time(100 * Microsecond)
	for h.popBoth(t, limit) {
		if h.now > limit {
			t.Fatalf("popped event at %v past limit %v", h.now, limit)
		}
	}
	// Everything left must be beyond the limit, in both implementations.
	for h.popBoth(t, maxTime) {
		if h.now <= limit {
			t.Fatalf("event at %v <= limit %v survived the bounded drain", h.now, limit)
		}
	}
}

// TestQueueFlushCurr pins the RunUntil force-advance corner: events
// parked in the curr fast lane are migrated into the sorted tier before
// the clock jumps, so later pops still come out in (at, seq) order.
func TestQueueFlushCurr(t *testing.T) {
	h := &queueHarness{}
	h.q.init()
	h.push(0, false)  // seq 0 at now — lands in curr
	h.push(10, false) // seq 1 — lands in near
	h.push(0, false)  // seq 2 at now — lands in curr
	h.q.flushCurr()
	h.now = 5 // simulate RunUntil jumping the clock with curr events left
	// Model: drain everything in (at, seq) order from 5's perspective;
	// the at=0 events are in the past but must still come out first.
	order := []struct {
		at  Time
		seq uint64
	}{{0, 0}, {0, 2}, {10, 1}}
	for i, want := range order {
		e := h.q.pop(h.now, maxTime)
		if e == nil || e.at != want.at || e.seq != want.seq {
			t.Fatalf("pop %d = %+v, want at=%v seq=%d", i, e, want.at, want.seq)
		}
	}
}

// TestQueueDueByVsHeap checks dueBy against the model heap on
// randomized schedules and, where nothing is due, jumps the clock
// without a pop the way Sleep run-ahead does — past the calendar
// horizon too — after which pops must still agree with the model.
func TestQueueDueByVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &queueHarness{}
		h.q.init()
		jumps := 0
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 2:
				h.push(h.now, rng.Intn(8) == 0)
			case r < 5:
				h.push(h.now+Time(rng.Int63n(int64(calendarWindow))), rng.Intn(8) == 0)
			case r < 6:
				h.push(h.now+calendarWindow+Time(rng.Int63n(int64(100*Millisecond))), rng.Intn(8) == 0)
			case r < 8:
				at := h.now + 1 + Time(rng.Int63n(int64(4*calendarWindow)))
				want := len(h.model) > 0 && h.model[0].at <= at
				if got := h.q.dueBy(at); got != want {
					t.Fatalf("seed %d: dueBy(%v) at now=%v = %v, model says %v", seed, at, h.now, got, want)
				}
				if !want {
					h.now = at
					jumps++
				}
			default:
				for i := 0; i < rng.Intn(6)+1; i++ {
					if !h.popBoth(t, maxTime) {
						break
					}
				}
			}
		}
		for h.popBoth(t, maxTime) {
		}
		if jumps == 0 {
			t.Fatalf("seed %d: no clock jump exercised", seed)
		}
	}
}
