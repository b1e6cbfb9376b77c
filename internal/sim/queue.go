//go:build !simrefqueue

//fvlint:hotpath
package sim

// calendarWindow is the width of the near tier. Events scheduled within
// this horizon land in the sorted near bucket; everything further out
// (watchdog timers, coalesce deadlines armed milliseconds ahead) parks
// in the far heap until the simulation clock approaches. The value is a
// little over one full round trip of the modeled testbed (~32 us), so
// the entire per-packet event population of both driver stacks lives in
// the near tier and the far tier is touched a handful of times per run.
const calendarWindow = Time(32 * Microsecond)

// equeue is the simulator's calendar event queue. It replaces the
// original container/heap implementation (still available behind the
// `simrefqueue` build tag as a byte-identity reference) with three
// tiers shaped around the dominant "schedule at now+Δ, fire soon"
// pattern of the packet hot path:
//
//	curr — a FIFO of events scheduled at exactly the current time.
//	       Since seq grows monotonically and the clock never moves
//	       backwards, append order IS (at, seq) order: O(1) push, O(1)
//	       pop, no comparisons. This is the fast lane for the Δ=0
//	       schedules (process starts, trigger fires, cond signals).
//	near — events with now < at <= horizon, kept sorted DESCENDING by
//	       (at, seq) so the soonest event is at the tail: pop is a
//	       slice shrink with no sift, and a same-timestamp burst
//	       drains as consecutive tail pops with no per-event fix-ups.
//	       Inserts scan from the tail, where a new event (the largest
//	       seq so far) sorts among the soonest; the common "fires
//	       next" case is a pure append.
//	far  — a plain binary min-heap for at > horizon. Only long timers
//	       land here, so its log(n) cost is off the per-packet path.
//
// Ordering invariants (the replay-determinism argument):
//
//	(1) every event in curr has at == now, and curr is in seq order;
//	(2) every near event with at == now was scheduled while now < at,
//	    so its seq is smaller than any curr event's — near@now drains
//	    before curr;
//	(3) near holds only at <= horizon, far only at > horizon, and
//	    horizon only moves at refill time when near and curr are both
//	    empty — so near strictly precedes far;
//	(4) time never advances while curr or near@now is non-empty.
//
// Together these give exactly the (at, seq) total order of the
// reference heap, which the property tests in queue_test.go and the
// replay fingerprint golden verify.
type equeue struct {
	curr     []*event
	currHead int
	near     []*event // sorted descending by (at, seq); minimum at the tail
	far      []*event // binary min-heap by (at, seq)
	horizon  Time
}

func (q *equeue) init() { q.horizon = calendarWindow }

// push enqueues e, routing it to the tier its timestamp selects.
func (q *equeue) push(e *event, now Time) {
	if e.at == now {
		q.curr = append(q.curr, e)
		return
	}
	if e.at > q.horizon {
		q.farPush(e)
		return
	}
	q.nearInsert(e)
}

// nearInsert inserts e into near, keeping it sorted descending. The
// slot is found by scanning from the tail and the later events shift
// up in place: a pushed event carries the largest seq so far, so it
// lands after every queued event at or before its timestamp — the
// soonest event so far (the dominant hot-path case) is a pure append.
func (q *equeue) nearInsert(e *event) {
	q.near = append(q.near, e)
	i := len(q.near) - 1
	for ; i > 0 && eventLess(q.near[i-1], e); i-- {
		q.near[i] = q.near[i-1]
	}
	q.near[i] = e
}

// pop removes and returns the (at, seq)-minimal event if its timestamp
// is <= limit, or nil. now must be the caller's current clock; events
// at exactly now drain from the near tail first (smaller seq), then the
// curr FIFO, before time is allowed to advance.
func (q *equeue) pop(now, limit Time) *event {
	if limit < now {
		return nil
	}
	for {
		n := len(q.near)
		if n > 0 && q.near[n-1].at == now {
			e := q.near[n-1]
			q.near[n-1] = nil
			q.near = q.near[:n-1]
			return e
		}
		if q.currHead < len(q.curr) {
			e := q.curr[q.currHead]
			q.curr[q.currHead] = nil
			q.currHead++
			if q.currHead == len(q.curr) {
				q.curr = q.curr[:0]
				q.currHead = 0
			}
			return e
		}
		if n > 0 {
			e := q.near[n-1]
			if e.at > limit {
				return nil
			}
			q.near[n-1] = nil
			q.near = q.near[:n-1]
			return e
		}
		if len(q.far) == 0 || q.far[0].at > limit {
			return nil
		}
		q.refill()
	}
}

// dueBy reports whether any queued event, live or cancelled, has a
// timestamp <= t, for t no earlier than now. The soonest event is the
// curr head (at == now), else the near tail, else the far root: near
// strictly precedes far.
func (q *equeue) dueBy(t Time) bool {
	if q.currHead < len(q.curr) {
		return true
	}
	if n := len(q.near); n > 0 {
		return q.near[n-1].at <= t
	}
	return len(q.far) > 0 && q.far[0].at <= t
}

// refill advances the horizon to cover the far tier's minimum and
// migrates everything inside the new window into near. Only reached
// with curr and near empty, so invariant (3) is preserved.
func (q *equeue) refill() {
	q.horizon = q.far[0].at + calendarWindow
	for len(q.far) > 0 && q.far[0].at <= q.horizon {
		q.near = append(q.near, q.farPop())
	}
	// farPop yields ascending (at, seq); near wants descending.
	for i, j := 0, len(q.near)-1; i < j; i, j = i+1, j-1 {
		q.near[i], q.near[j] = q.near[j], q.near[i]
	}
}

// flushCurr migrates any leftover curr events into near. RunUntil calls
// it before force-advancing the clock past a Stop'd simulation so that
// invariant (1) — curr events are at the current time — survives the
// jump.
func (q *equeue) flushCurr() {
	for q.currHead < len(q.curr) {
		e := q.curr[q.currHead]
		q.curr[q.currHead] = nil
		q.currHead++
		q.nearInsert(e)
	}
	q.curr = q.curr[:0]
	q.currHead = 0
}

func (q *equeue) farPush(e *event) {
	q.far = append(q.far, e)
	i := len(q.far) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q.far[i], q.far[parent]) {
			break
		}
		q.far[i], q.far[parent] = q.far[parent], q.far[i]
		i = parent
	}
}

func (q *equeue) farPop() *event {
	h := q.far
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	q.far = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(h[l], h[min]) {
			min = l
		}
		if r < n && eventLess(h[r], h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return e
}
