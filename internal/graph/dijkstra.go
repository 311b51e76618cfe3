package graph

import "math"

const infDelay = math.MaxFloat64

// pqItem is one entry of the Dijkstra priority queue.
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap on dist. push and pop sift exactly as
// container/heap's up and down do, so items of equal dist pop in the same
// order they would from heap.Push/heap.Pop — which is what decides among
// equal-delay paths — without boxing every item in an interface.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2 // right child
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

// ShortestPathTree runs Dijkstra from src with delay weights, honoring the
// optional excluded-link and excluded-node masks. It returns the distance
// to every node (infDelay when unreachable) and, for each node, the link
// over which it is reached (-1 for src and unreachable nodes).
//
// The node mask excludes nodes from being traversed; src itself is never
// excluded from being the starting point.
func (g *Graph) ShortestPathTree(src NodeID, linkMask, nodeMask *Mask) ([]float64, []LinkID) {
	dist := make([]float64, g.NumNodes())
	prev := make([]LinkID, g.NumNodes())
	g.shortestPathTree(src, linkMask, nodeMask, dist, prev, make(pq, 0, g.NumNodes()))
	return dist, prev
}

// shortestPathTree is ShortestPathTree into caller-owned buffers: dist
// and prev of length NumNodes, and q as the (emptied) queue's backing
// store. It returns the queue so a caller running many trees can reuse
// its grown capacity.
func (g *Graph) shortestPathTree(src NodeID, linkMask, nodeMask *Mask, dist []float64, prev []LinkID, q pq) pq {
	for i := range dist {
		dist[i] = infDelay
		prev[i] = -1
	}
	dist[src] = 0

	q = q[:0]
	q.push(pqItem{node: src, dist: 0})
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for _, lid := range g.out[it.node] {
			if linkMask.Has(int32(lid)) {
				continue
			}
			l := g.links[lid]
			if nodeMask.Has(int32(l.To)) {
				continue
			}
			nd := it.dist + l.Delay
			if nd < dist[l.To] {
				dist[l.To] = nd
				prev[l.To] = lid
				q.push(pqItem{node: l.To, dist: nd})
			}
		}
	}
	return q
}

// ShortestPath returns the minimum-delay path src -> dst under the optional
// masks, and whether one exists.
func (g *Graph) ShortestPath(src, dst NodeID, linkMask, nodeMask *Mask) (Path, bool) {
	if src == dst {
		return Path{}, true
	}
	dist, prev := g.ShortestPathTree(src, linkMask, nodeMask)
	if dist[dst] == infDelay {
		return Path{}, false
	}
	return extractPath(g, prev, src, dst, dist[dst]), true
}

// extractPath walks prev links backwards from dst to src.
func extractPath(g *Graph, prev []LinkID, src, dst NodeID, delay float64) Path {
	return Path{Links: treePath(g, nil, prev, src, dst), Delay: delay}
}

// treePath returns a new, exactly sized slice holding prefix followed by
// the tree path src -> dst recorded in prev.
func treePath(g *Graph, prefix, prev []LinkID, src, dst NodeID) []LinkID {
	hops := 0
	for at := dst; at != src; at = g.links[prev[at]].From {
		hops++
	}
	links := make([]LinkID, len(prefix)+hops)
	copy(links, prefix)
	for at, i := dst, len(links)-1; at != src; i-- {
		lid := prev[at]
		links[i] = lid
		at = g.links[lid].From
	}
	return links
}

// AllShortestPaths returns the shortest path for every ordered node pair
// (src != dst) as a map keyed by src then dst. Unreachable pairs are absent.
func (g *Graph) AllShortestPaths() map[NodeID]map[NodeID]Path {
	out := make(map[NodeID]map[NodeID]Path, g.NumNodes())
	for s := 0; s < g.NumNodes(); s++ {
		src := NodeID(s)
		dist, prev := g.ShortestPathTree(src, nil, nil)
		m := make(map[NodeID]Path)
		for d := 0; d < g.NumNodes(); d++ {
			dst := NodeID(d)
			if dst == src || dist[dst] == infDelay {
				continue
			}
			m[dst] = extractPath(g, prev, src, dst, dist[dst])
		}
		out[src] = m
	}
	return out
}
