// Package routing implements the traffic-placement schemes the paper
// studies: delay-proportional shortest-path routing, B4's greedy waterfill,
// MinMax (TeXCP-style, full and k-limited) with a latency tie-break, the
// latency-optimal path-based LP of Figure 12 with the iterative path-set
// growth of Figure 13 (including the headroom dial), and a link-based
// multi-commodity-flow baseline used for the Figure 15 runtime comparison.
package routing

import (
	"fmt"
	"math"

	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// fracEps is the smallest path fraction kept in a placement.
const fracEps = 1e-7

// satEps defines link congestion: utilization strictly above 1+satEps is
// congested. Exactly-full links are not congested — the latency-optimal
// scheme deliberately loads its busiest links to 100% (Figure 7) while
// Figure 4(a) reports zero congestion for it.
const satEps = 1e-6

// PathAlloc assigns a fraction of an aggregate's volume to one path.
type PathAlloc struct {
	Path     graph.Path
	Fraction float64
}

// Placement is the result of running a scheme on a topology and traffic
// matrix: per-aggregate path allocations plus any volume the scheme failed
// to place (greedy schemes can get stuck).
type Placement struct {
	G      *graph.Graph
	TM     *tm.Matrix
	Allocs [][]PathAlloc // indexed like TM.Aggregates
	// Unplaced is the fraction (0..1) of each aggregate's volume the
	// scheme could not place.
	Unplaced []float64
}

// NewPlacement returns an empty placement for the matrix.
func NewPlacement(g *graph.Graph, m *tm.Matrix) *Placement {
	return &Placement{
		G:        g,
		TM:       m,
		Allocs:   make([][]PathAlloc, m.Len()),
		Unplaced: make([]float64, m.Len()),
	}
}

// LinkLoads returns the traffic volume placed on every link (bits/sec).
func (p *Placement) LinkLoads() []float64 {
	loads := make([]float64, p.G.NumLinks())
	for i, allocs := range p.Allocs {
		vol := p.TM.Aggregates[i].Volume
		for _, a := range allocs {
			for _, lid := range a.Path.Links {
				loads[lid] += vol * a.Fraction
			}
		}
	}
	return loads
}

// Utilizations returns per-link load divided by capacity.
func (p *Placement) Utilizations() []float64 {
	utils := p.LinkLoads()
	for i := range utils {
		utils[i] /= p.G.Link(graph.LinkID(i)).Capacity
	}
	return utils
}

// MaxUtilization returns the highest link utilization.
func (p *Placement) MaxUtilization() float64 {
	maxU := 0.0
	for _, u := range p.Utilizations() {
		if u > maxU {
			maxU = u
		}
	}
	return maxU
}

// CongestedPairFraction returns the fraction of aggregates whose placement
// crosses at least one saturated link — the y-axis of Figures 3, 4 and 19.
func (p *Placement) CongestedPairFraction() float64 {
	if p.TM.Len() == 0 {
		return 0
	}
	utils := p.Utilizations()
	congested := 0
	for i, allocs := range p.Allocs {
		hit := p.Unplaced[i] > fracEps // unplaceable traffic counts as congested
	scan:
		for _, a := range allocs {
			if a.Fraction < fracEps {
				continue
			}
			for _, lid := range a.Path.Links {
				if utils[lid] > 1+satEps {
					hit = true
					break scan
				}
			}
		}
		if hit {
			congested++
		}
	}
	return float64(congested) / float64(p.TM.Len())
}

// LatencyStretch returns the volume-weighted mean delay of the placement
// divided by the all-shortest-path baseline — the paper's latency stretch
// (Σ_f d_f / Σ_f d_f,sp with flows weighted by volume). Unplaced volume is
// excluded from both sums.
func (p *Placement) LatencyStretch() float64 {
	return latencyStretch(p, p.shortestDelays())
}

// MaxStretch returns the maximum over aggregates and used paths of
// path-delay / shortest-path-delay — the x-axis of Figure 16. Returns
// +Inf when some traffic is unplaced (the scenario "does not fit").
func (p *Placement) MaxStretch() float64 {
	for _, u := range p.Unplaced {
		if u > fracEps {
			return math.Inf(1)
		}
	}
	sp := p.shortestDelays()
	maxS := 1.0
	for i, allocs := range p.Allocs {
		if sp[i] <= 0 || math.IsInf(sp[i], 1) {
			continue
		}
		for _, a := range allocs {
			if a.Fraction < fracEps {
				continue
			}
			if s := a.Path.Delay / sp[i]; s > maxS {
				maxS = s
			}
		}
	}
	return maxS
}

// shortestDelays returns every aggregate's unmasked shortest-path delay
// (0 when src == dst, +Inf when unreachable), running one shortest-path
// tree per distinct source rather than one search per aggregate.
func (p *Placement) shortestDelays() []float64 {
	dists := make([][]float64, p.G.NumNodes())
	prevs := make([][]graph.LinkID, p.G.NumNodes())
	out := make([]float64, p.TM.Len())
	for i, a := range p.TM.Aggregates {
		if dists[a.Src] == nil {
			dists[a.Src], prevs[a.Src] = p.G.ShortestPathTree(a.Src, nil, nil)
		}
		out[i] = dists[a.Src][a.Dst]
		if a.Dst != a.Src && prevs[a.Src][a.Dst] == -1 {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// latencyStretch is LatencyStretch given each aggregate's shortest-path
// delay sp[i]; aggregates with an infinite sp (unreachable) are skipped.
func latencyStretch(p *Placement, sp []float64) float64 {
	num, den := 0.0, 0.0
	for i, allocs := range p.Allocs {
		if math.IsInf(sp[i], 1) {
			continue
		}
		vol := p.TM.Aggregates[i].Volume
		for _, a := range allocs {
			if a.Fraction < fracEps {
				continue
			}
			num += vol * a.Fraction * a.Path.Delay
			den += vol * a.Fraction * sp[i]
		}
	}
	if den == 0 {
		return 1
	}
	return num / den
}

// TotalUnplacedVolume returns the volume (bits/sec) left unplaced.
func (p *Placement) TotalUnplacedVolume() float64 {
	sum := 0.0
	for i, f := range p.Unplaced {
		sum += f * p.TM.Aggregates[i].Volume
	}
	return sum
}

// Fits reports whether the placement carries all traffic without
// overloading any link — the paper's criterion for "the routing system
// found a placement that fits the traffic" (Figure 16). Links at exactly
// 100% still fit.
func (p *Placement) Fits() bool {
	if p.TotalUnplacedVolume() > fracEps {
		return false
	}
	return p.MaxUtilization() <= 1+satEps
}

// Validate checks structural invariants: fractions are sane, paths connect
// the aggregate endpoints, and placed+unplaced is a full unit per
// aggregate.
func (p *Placement) Validate() error {
	if len(p.Allocs) != p.TM.Len() || len(p.Unplaced) != p.TM.Len() {
		return fmt.Errorf("routing: placement size mismatch")
	}
	for i, allocs := range p.Allocs {
		agg := p.TM.Aggregates[i]
		total := p.Unplaced[i]
		for _, a := range allocs {
			if a.Fraction < -fracEps || a.Fraction > 1+fracEps {
				return fmt.Errorf("routing: aggregate %d has fraction %v", i, a.Fraction)
			}
			if a.Fraction >= fracEps {
				if a.Path.Empty() {
					return fmt.Errorf("routing: aggregate %d has empty path with fraction %v", i, a.Fraction)
				}
				if a.Path.Src(p.G) != agg.Src || a.Path.Dst(p.G) != agg.Dst {
					return fmt.Errorf("routing: aggregate %d path endpoints mismatch", i)
				}
			}
			total += a.Fraction
		}
		if math.Abs(total-1) > 1e-4 {
			return fmt.Errorf("routing: aggregate %d fractions sum to %v", i, total)
		}
	}
	return nil
}
