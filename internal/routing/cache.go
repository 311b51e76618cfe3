package routing

import (
	"sync"

	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// PathCache memoizes per-pair k-shortest-path enumerators for one graph.
// It replaces the old graph.KSPCache: instead of one mutex serializing
// every lookup, pairs are locked individually, so concurrent solves that
// touch different node pairs proceed in parallel while solves racing on
// the same pair still extend one shared enumerator exactly once.
//
// Sharing a PathCache across optimizations is purely a performance
// optimization (the warm-cache effect Figure 15 isolates): enumeration is
// deterministic per pair, so cached and cold runs produce identical paths.
type PathCache struct {
	g  *graph.Graph
	mu sync.Mutex
	m  map[[2]graph.NodeID]*pairCache
}

type pairCache struct {
	mu  sync.Mutex
	ksp *graph.KSP
}

// NewPathCache returns an empty cache bound to g.
func NewPathCache(g *graph.Graph) *PathCache {
	return &PathCache{g: g, m: make(map[[2]graph.NodeID]*pairCache)}
}

// Graph returns the topology the cache is bound to.
func (c *PathCache) Graph() *graph.Graph { return c.g }

func (c *PathCache) pair(src, dst graph.NodeID) *pairCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := [2]graph.NodeID{src, dst}
	e, ok := c.m[key]
	if !ok {
		e = &pairCache{ksp: graph.NewKSP(c.g, src, dst, nil)}
		c.m[key] = e
	}
	return e
}

// Paths returns up to k of the shortest paths between src and dst, reusing
// previously generated paths.
func (c *PathCache) Paths(src, dst graph.NodeID, k int) []graph.Path {
	e := c.pair(src, dst)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ksp.First(k)
}

// ShortestPath returns the single lowest-delay path between src and dst —
// the S_a shortest-path baseline every scheme computes — from the same
// enumerator state Paths uses, so SP routing and LP seeding share work.
func (c *PathCache) ShortestPath(src, dst graph.NodeID) (graph.Path, bool) {
	ps := c.Paths(src, dst, 1)
	if len(ps) == 0 {
		return graph.Path{}, false
	}
	return ps[0], true
}

// Generated returns how many paths are cached for the pair (for tests and
// runtime accounting). Pure read: pairs never queried report 0 without
// allocating enumerator state.
func (c *PathCache) Generated(src, dst graph.NodeID) int {
	c.mu.Lock()
	e, ok := c.m[[2]graph.NodeID{src, dst}]
	c.mu.Unlock()
	if !ok {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ksp.Generated()
}

// SolverCache shares path computations across an engine run: one PathCache
// per distinct topology, keyed by graph fingerprint, so concurrent
// placements of different matrices (or different schemes) on the same
// network reuse each other's shortest-path and KSP work instead of
// recomputing it per Place call.
type SolverCache struct {
	mu    sync.Mutex
	byPtr map[*graph.Graph]*PathCache
	byFP  map[uint64]*PathCache
}

// NewSolverCache returns an empty multi-topology cache.
func NewSolverCache() *SolverCache {
	return &SolverCache{
		byPtr: make(map[*graph.Graph]*PathCache),
		byFP:  make(map[uint64]*PathCache),
	}
}

// ForGraph returns the PathCache for g, creating it on first use. Graphs
// are recognized structurally (by fingerprint), so two builds of the same
// topology share one cache; the pointer index just skips re-hashing graphs
// the cache has already seen.
func (s *SolverCache) ForGraph(g *graph.Graph) *PathCache {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pc, ok := s.byPtr[g]; ok {
		return pc
	}
	fp := g.Fingerprint()
	pc, ok := s.byFP[fp]
	if !ok {
		pc = NewPathCache(g)
		s.byFP[fp] = pc
	}
	s.byPtr[g] = pc
	return pc
}

// Place routes one scenario through the shared cache: schemes that can
// reuse path computations (SP, B4, MinMax, LatencyOpt) are bound to g's
// PathCache before placing; MPLS-TE, whose CSPF lookups are masked by
// the load placed so far, places as-is.
func (s *SolverCache) Place(scheme Scheme, g *graph.Graph, m *tm.Matrix) (*Placement, error) {
	if cs, ok := scheme.(CacheableScheme); ok {
		scheme = cs.WithPathCache(s.ForGraph(g))
	}
	return scheme.Place(g, m)
}

// CacheableScheme is implemented by schemes whose path computations depend
// only on the topology (not on load), and can therefore be shared across
// concurrent placements via a PathCache.
type CacheableScheme interface {
	Scheme
	// WithPathCache returns a copy of the scheme bound to the cache. A
	// scheme that already carries a cache returns itself unchanged, so an
	// explicitly configured cache always wins.
	WithPathCache(c *PathCache) Scheme
}
