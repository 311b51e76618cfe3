package graph

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refPQ and refCand are container/heap reference implementations of the
// typed heaps: the order they pop equal keys in is the order the typed
// heaps must reproduce.
type refPQ []pqItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

type refCand []Path

func (h refCand) Len() int            { return len(h) }
func (h refCand) Less(i, j int) bool  { return h[i].Delay < h[j].Delay }
func (h refCand) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refCand) Push(x interface{}) { *h = append(*h, x.(Path)) }
func (h *refCand) Pop() interface{} {
	old := *h
	p := old[len(old)-1]
	*h = old[:len(old)-1]
	return p
}

// TestTypedHeapsMatchContainerHeap interleaves random pushes and pops
// with few distinct keys (so most keys tie) and requires every pop of the
// typed heaps to return exactly the item container/heap returns.
func TestTypedHeapsMatchContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		keys := 1 + rng.Intn(4)
		var q pq
		var rq refPQ
		var h candHeap
		var rh refCand
		for op, id := 0, 0; op < 300; op++ {
			if len(q) == 0 || rng.Intn(3) > 0 {
				d := float64(rng.Intn(keys))
				it := pqItem{node: NodeID(id), dist: d}
				q.push(it)
				heap.Push(&rq, it)
				p := Path{Links: []LinkID{LinkID(id)}, Delay: d}
				h.push(p)
				heap.Push(&rh, p)
				id++
				continue
			}
			if got, want := q.pop(), heap.Pop(&rq).(pqItem); got != want {
				t.Fatalf("trial %d op %d: pq popped %+v, container/heap %+v", trial, op, got, want)
			}
			if got, want := h.pop(), heap.Pop(&rh).(Path); !got.Equal(want) || got.Delay != want.Delay {
				t.Fatalf("trial %d op %d: candHeap popped %v, container/heap %v", trial, op, got, want)
			}
		}
		for len(q) > 0 {
			if got, want := q.pop(), heap.Pop(&rq).(pqItem); got != want {
				t.Fatalf("trial %d drain: pq popped %+v, container/heap %+v", trial, got, want)
			}
			if got, want := h.pop(), heap.Pop(&rh).(Path); !got.Equal(want) {
				t.Fatalf("trial %d drain: candHeap popped %v, container/heap %v", trial, got, want)
			}
		}
	}
}

// TestPathKeyFormat pins the dedup key bytes.
func TestPathKeyFormat(t *testing.T) {
	if got := (Path{Links: []LinkID{0, 12, 7}}).Key(); got != "0,12,7," {
		t.Fatalf("Key = %q", got)
	}
	if got := (Path{}).Key(); got != "" {
		t.Fatalf("empty Key = %q", got)
	}
}
