package graph

// KSP incrementally enumerates the k shortest loop-free paths between one
// node pair in increasing delay order (Yen's algorithm). Paths are computed
// lazily: asking for path i only does the work needed to reach i. This
// matches the paper's observation that the k-shortest-paths computation is
// LDR's bottleneck and its results "can be readily cached" — the
// concurrency-safe cache lives in routing.PathCache, which wraps these
// enumerators with per-pair locking.
type KSP struct {
	g        *Graph
	src, dst NodeID
	baseMask *Mask

	found []Path
	cand  candHeap
	// seen holds the key of every path found or queued. It is made with
	// the first spur search: most pairs are only ever asked for their
	// shortest path, and a cache holds one enumerator per pair.
	seen      map[string]bool
	exhausted bool
}

// NewKSP returns a lazy k-shortest-path enumerator for src -> dst. The
// optional baseMask excludes links from all generated paths.
func NewKSP(g *Graph, src, dst NodeID, baseMask *Mask) *KSP {
	return &KSP{
		g: g, src: src, dst: dst,
		baseMask: baseMask,
	}
}

// candHeap is a binary min-heap of candidate paths on Delay. Like pq, it
// sifts exactly as container/heap does, so among equal-delay candidates
// the same one pops first.
type candHeap []Path

func (h *candHeap) push(p Path) {
	c := append(*h, p)
	for j := len(c) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !(c[j].Delay < c[i].Delay) {
			break
		}
		c[i], c[j] = c[j], c[i]
		j = i
	}
	*h = c
}

func (h *candHeap) pop() Path {
	c := *h
	n := len(c) - 1
	c[0], c[n] = c[n], c[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && c[j2].Delay < c[j].Delay {
			j = j2 // right child
		}
		if !(c[j].Delay < c[i].Delay) {
			break
		}
		c[i], c[j] = c[j], c[i]
		i = j
	}
	p := c[n]
	c[n] = Path{} // drop the reference held past the new length
	*h = c[:n]
	return p
}

// At returns the i-th shortest path (0-based) if it exists.
func (k *KSP) At(i int) (Path, bool) {
	for len(k.found) <= i && !k.exhausted {
		k.generateNext()
	}
	if i < len(k.found) {
		return k.found[i], true
	}
	return Path{}, false
}

// First returns up to n of the shortest paths.
func (k *KSP) First(n int) []Path {
	for len(k.found) < n && !k.exhausted {
		k.generateNext()
	}
	if n > len(k.found) {
		n = len(k.found)
	}
	return k.found[:n:n]
}

// Generated returns the number of paths produced so far.
func (k *KSP) Generated() int { return len(k.found) }

func (k *KSP) generateNext() {
	if k.exhausted {
		return
	}
	if len(k.found) == 0 {
		sp, ok := k.g.ShortestPath(k.src, k.dst, k.baseMask, nil)
		if !ok || sp.Empty() {
			k.exhausted = true
			return
		}
		k.found = append(k.found, sp)
		return
	}
	if k.seen == nil {
		k.seen = map[string]bool{k.found[0].Key(): true}
	}

	// Scratch shared by this step's spur searches; nothing outlives it.
	n := k.g.NumNodes()
	dist := make([]float64, n)
	tree := make([]LinkID, n)
	q := make(pq, 0, n)
	linkMask := k.baseMask.Clone()
	nodeMask := NewMask(n)
	var keyBuf []byte

	prev := k.found[len(k.found)-1]
	rootDelay := 0.0
	for i := 0; i < len(prev.Links); i++ {
		spurNode := k.src
		if i > 0 {
			spurNode = k.g.Link(prev.Links[i-1]).To
		}
		rootLinks := prev.Links[:i]

		clear(linkMask.bits)
		if k.baseMask != nil {
			copy(linkMask.bits, k.baseMask.bits)
		}
		for _, p := range k.found {
			if hasPrefix(p.Links, rootLinks) && len(p.Links) > i {
				linkMask.Set(int32(p.Links[i]))
			}
		}
		clear(nodeMask.bits)
		at := k.src
		for _, lid := range rootLinks {
			nodeMask.Set(int32(at))
			at = k.g.Link(lid).To
		}

		q = k.g.shortestPathTree(spurNode, linkMask, nodeMask, dist, tree, q)
		if dist[k.dst] != infDelay {
			links := treePath(k.g, rootLinks, tree, spurNode, k.dst)
			cand := Path{Links: links, Delay: rootDelay + dist[k.dst]}
			keyBuf = cand.appendKey(keyBuf[:0])
			if !k.seen[string(keyBuf)] {
				k.seen[string(keyBuf)] = true
				k.cand.push(cand)
			}
		}
		rootDelay += k.g.Link(prev.Links[i]).Delay
	}

	if len(k.cand) == 0 {
		k.exhausted = true
		return
	}
	k.found = append(k.found, k.cand.pop())
}

func hasPrefix(links, prefix []LinkID) bool {
	if len(links) < len(prefix) {
		return false
	}
	for i := range prefix {
		if links[i] != prefix[i] {
			return false
		}
	}
	return true
}
