//go:build simrefqueue

package sim

import "container/heap"

// This file is the build-time reference shim for the event queue: the
// original container/heap implementation, selected with
//
//	go test -tags simrefqueue ./...
//
// A run under this tag must be byte-identical to a default-build run —
// same traces, same samples, same metric snapshots (the replay
// fingerprint golden in the root package asserts exactly that). It
// exists so the calendar queue in queue.go can always be cross-checked
// against a dead-simple total order.
type equeue struct{ h refHeap }

func (q *equeue) init() {}

func (q *equeue) push(e *event, now Time) { heap.Push(&q.h, e) }

func (q *equeue) pop(now, limit Time) *event {
	if len(q.h) == 0 || q.h[0].at > limit {
		return nil
	}
	return heap.Pop(&q.h).(*event)
}

func (q *equeue) dueBy(t Time) bool { return len(q.h) > 0 && q.h[0].at <= t }

func (q *equeue) flushCurr() {}

type refHeap []*event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
