package routing

import (
	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// B4 is the greedy waterfill allocator of Jain et al. (SIGCOMM 2015) as the
// paper describes it in §3: traffic from every aggregate is placed
// incrementally, in parallel, onto each aggregate's shortest path; when an
// aggregate's current path fills up, the aggregate advances to its next
// shortest path. All traffic has equal priority. The greedy order is what
// traps B4 in the local minima of Figures 5 and 6.
type B4 struct {
	// Headroom reserves a fraction of every link's capacity during the
	// main allocation pass (§6). Traffic that fails to fit is then given
	// a second pass against full link capacities — B4 "eating into" the
	// reserved headroom, exactly as the paper observes.
	Headroom float64
	// Quanta is the number of increments each aggregate's volume is
	// split into for the parallel waterfill. Default 50.
	Quanta int
	// MaxPaths bounds each aggregate's path list. Default 32.
	MaxPaths int
	// Cache optionally shares k-shortest-path state with other
	// placements on the same topology; the waterfill's path lists depend
	// only on the topology, never on load.
	Cache *PathCache
}

// Name implements Scheme.
func (b B4) Name() string {
	if b.Headroom > 0 {
		return "b4+hr"
	}
	return "b4"
}

// WithPathCache implements CacheableScheme; an explicitly set cache wins.
func (b B4) WithPathCache(c *PathCache) Scheme {
	if b.Cache == nil {
		b.Cache = c
	}
	return b
}

func (b B4) withDefaults() B4 {
	if b.Quanta <= 0 {
		b.Quanta = 50
	}
	if b.MaxPaths <= 0 {
		b.MaxPaths = 32
	}
	return b
}

// b4Agg is one aggregate's waterfill state.
type b4Agg struct {
	src, dst  graph.NodeID
	paths     []graph.Path // the shortest paths read so far
	pathIdx   int
	remaining float64   // quanta left to place
	placed    []float64 // quanta placed, indexed by path index
	stuck     bool
}

// path returns the aggregate's idx-th shortest path, reading through the
// cache only when idx is past the paths already read.
func (st *b4Agg) path(c *PathCache, idx int) (graph.Path, bool) {
	if idx >= len(st.paths) {
		st.paths = c.Paths(st.src, st.dst, idx+1)
		if idx >= len(st.paths) {
			return graph.Path{}, false
		}
	}
	return st.paths[idx], true
}

// Place implements Scheme.
func (b B4) Place(g *graph.Graph, m *tm.Matrix) (*Placement, error) {
	b = b.withDefaults()
	cache := b.Cache
	if cache == nil {
		cache = NewPathCache(g)
	}
	if _, err := shortestDelaysCached(cache, g, m); err != nil {
		return nil, err
	}

	spare := make([]float64, g.NumLinks())
	for i, l := range g.Links() {
		spare[i] = l.Capacity * (1 - b.Headroom)
	}

	states := make([]*b4Agg, m.Len())
	for i, a := range m.Aggregates {
		states[i] = &b4Agg{
			src:       a.Src,
			dst:       a.Dst,
			remaining: float64(b.Quanta),
			placed:    make([]float64, b.MaxPaths),
		}
	}

	// fill runs the parallel waterfill round-robin: one quantum per
	// aggregate per round, advancing to the next shortest path when the
	// current path cannot take a full quantum.
	fill := func() {
		for {
			progress := false
			for i, st := range states {
				if st.stuck || st.remaining <= 0 {
					continue
				}
				quantum := m.Aggregates[i].Volume / float64(b.Quanta)
				for {
					if st.pathIdx >= b.MaxPaths {
						st.stuck = true
						break
					}
					path, ok := st.path(cache, st.pathIdx)
					if !ok {
						st.stuck = true
						break
					}
					if pathFits(spare, path, quantum) {
						for _, lid := range path.Links {
							spare[lid] -= quantum
						}
						st.placed[st.pathIdx]++
						st.remaining--
						progress = true
						break
					}
					st.pathIdx++
				}
			}
			if !progress {
				return
			}
		}
	}

	fill()

	if b.Headroom > 0 {
		// Second pass: stuck remainders may consume the reserved
		// headroom (full capacities).
		loads := make([]float64, g.NumLinks())
		for i, l := range g.Links() {
			loads[i] = l.Capacity*(1-b.Headroom) - spare[i]
			spare[i] = l.Capacity - loads[i]
		}
		for _, st := range states {
			if st.stuck && st.remaining > 0 {
				st.stuck = false
				st.pathIdx = 0
			}
		}
		fill()
	}

	// Traffic B4 failed to fit does not disappear: it is forced onto the
	// aggregate's shortest path, overloading links. This is what turns
	// B4's greedy local minima into the congestion Figure 4(b) measures
	// ("more than half of B4's paths cross a saturated link").
	for _, st := range states {
		if st.remaining > 0 {
			st.placed[0] += st.remaining
			st.remaining = 0
		}
	}

	p := NewPlacement(g, m)
	for i, st := range states {
		var allocs []PathAlloc
		// Path-index order, then a stable sort by delay: equal-delay
		// paths keep their enumeration order, so the output is
		// deterministic.
		for idx, quanta := range st.placed {
			if quanta == 0 {
				continue
			}
			path, _ := st.path(cache, idx)
			f := quanta / float64(b.Quanta)
			if f > fracEps {
				allocs = append(allocs, PathAlloc{Path: path, Fraction: f})
			}
		}
		sortAllocsByDelay(allocs)
		p.Allocs[i] = allocs
	}
	return p, nil
}

func pathFits(spare []float64, path graph.Path, quantum float64) bool {
	for _, lid := range path.Links {
		if spare[lid] < quantum-1e-6 {
			return false
		}
	}
	return true
}

func sortAllocsByDelay(allocs []PathAlloc) {
	for i := 1; i < len(allocs); i++ {
		for j := i; j > 0 && allocs[j].Path.Delay < allocs[j-1].Path.Delay; j-- {
			allocs[j], allocs[j-1] = allocs[j-1], allocs[j]
		}
	}
}
