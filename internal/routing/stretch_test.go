package routing

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// refLatencyStretch and refMaxStretch are the per-aggregate formulas the
// stretch metrics were first written as: one ShortestPath search per
// aggregate. The tree-per-source versions must match them bit for bit.
func refLatencyStretch(p *Placement) float64 {
	num, den := 0.0, 0.0
	for i, allocs := range p.Allocs {
		agg := p.TM.Aggregates[i]
		sp, ok := p.G.ShortestPath(agg.Src, agg.Dst, nil, nil)
		if !ok {
			continue
		}
		for _, a := range allocs {
			if a.Fraction < fracEps {
				continue
			}
			num += agg.Volume * a.Fraction * a.Path.Delay
			den += agg.Volume * a.Fraction * sp.Delay
		}
	}
	if den == 0 {
		return 1
	}
	return num / den
}

func refMaxStretch(p *Placement) float64 {
	maxS := 1.0
	for i, allocs := range p.Allocs {
		if p.Unplaced[i] > fracEps {
			return math.Inf(1)
		}
		agg := p.TM.Aggregates[i]
		sp, ok := p.G.ShortestPath(agg.Src, agg.Dst, nil, nil)
		if !ok || sp.Delay <= 0 {
			continue
		}
		for _, a := range allocs {
			if a.Fraction < fracEps {
				continue
			}
			if s := a.Path.Delay / sp.Delay; s > maxS {
				maxS = s
			}
		}
	}
	return maxS
}

// splitTopology is two random components plus one one-way link from the
// first into the second, so some pairs are unreachable in one direction
// only and others in both.
func splitTopology(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder("split")
	const n = 10
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = b.AddNode(string(rune('a'+i)), geo.Point{})
	}
	for c := 0; c < 2; c++ {
		base := c * n / 2
		for i := 0; i < n/2; i++ {
			b.AddBiLink(ids[base+i], ids[base+(i+1)%(n/2)], 10e9, 0.001+0.004*rng.Float64())
		}
		b.AddBiLink(ids[base], ids[base+2], 10e9, 0.001+0.006*rng.Float64())
	}
	b.AddLink(ids[1], ids[n/2+1], 10e9, 0.002)
	return b.MustBuild()
}

// randomPlacement spreads every aggregate over random KSP paths (or, when
// the pair is unreachable or a self-loop, over made-up delays), with some
// fractions below fracEps and some volume unplaced.
func randomPlacement(rng *rand.Rand, g *graph.Graph, m *tm.Matrix, unplaced bool) *Placement {
	p := NewPlacement(g, m)
	for i, a := range m.Aggregates {
		paths := graph.NewKSP(g, a.Src, a.Dst, nil).First(1 + rng.Intn(4))
		if len(paths) == 0 {
			paths = []graph.Path{{Delay: 0}, {Delay: 0.001 + 0.01*rng.Float64()}}
		}
		left := 1.0
		if unplaced && rng.Intn(3) == 0 {
			p.Unplaced[i] = 0.25
			left = 0.75
		}
		for j, path := range paths {
			f := left * rng.Float64()
			switch {
			case j == len(paths)-1:
				f = left
			case rng.Intn(5) == 0:
				f = fracEps / 2
			}
			left -= f
			p.Allocs[i] = append(p.Allocs[i], PathAlloc{Path: path, Fraction: f})
		}
	}
	return p
}

// TestStretchMatchesPerAggregateFormula compares the stretch metrics with
// the per-aggregate reference bit for bit, on connected and split
// topologies, with self-loop and unreachable aggregates, with and
// without unplaced volume, and on real scheme placements.
func TestStretchMatchesPerAggregateFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s = %v, per-aggregate formula gives %v", what, got, want)
		}
	}
	check := func(p *Placement) {
		t.Helper()
		same("LatencyStretch", p.LatencyStretch(), refLatencyStretch(p))
		same("MaxStretch", p.MaxStretch(), refMaxStretch(p))
	}
	for trial := 0; trial < 40; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			g = randomTopology(rng, 6+rng.Intn(6), 0.3)
		} else {
			g = splitTopology(rng)
		}
		var aggs []tm.Aggregate
		for s := 0; s < g.NumNodes(); s++ {
			for d := 0; d < g.NumNodes(); d++ {
				if rng.Intn(3) == 0 { // self-loops included
					aggs = append(aggs, agg(graph.NodeID(s), graph.NodeID(d), 0.1+rng.Float64()))
				}
			}
		}
		m := tm.New(aggs)
		check(randomPlacement(rng, g, m, false))
		check(randomPlacement(rng, g, m, true))
	}
	for trial := 0; trial < 10; trial++ {
		g := randomTopology(rng, 8+rng.Intn(6), 0.3)
		m := randomMatrix(rng, g, 20, 4)
		for _, s := range []Scheme{SP{}, B4{}, MPLSTE{}, MinMax{}, MinMax{K: 10}, LatencyOpt{Headroom: 0.1}} {
			p, err := s.Place(g, m)
			if err != nil {
				t.Fatal(err)
			}
			check(p)
		}
	}
}

// gridTopology is a w x h grid of identical links, where many paths tie
// on delay.
func gridTopology(w, h int) *graph.Graph {
	b := graph.NewBuilder("grid")
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*w + x) }
	for i := 0; i < w*h; i++ {
		b.AddNode(string(rune('a'+i)), geo.Point{})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddBiLink(id(x, y), id(x+1, y), 10e9, 0.003)
			}
			if y+1 < h {
				b.AddBiLink(id(x, y), id(x, y+1), 10e9, 0.003)
			}
		}
	}
	return b.MustBuild()
}

// b4Matrix is a matrix heavy enough on a grid (where many paths tie on
// delay) that B4 spills aggregates over several equal-delay paths.
func b4Matrix(g *graph.Graph) *tm.Matrix {
	rng := rand.New(rand.NewSource(1))
	var aggs []tm.Aggregate
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s != d {
				aggs = append(aggs, agg(graph.NodeID(s), graph.NodeID(d), 0.2+1.2*rng.Float64()))
			}
		}
	}
	return tm.New(aggs)
}

// TestB4AllocsDeterministic places one matrix repeatedly and requires
// identical allocations, order included: equal-delay paths must not come
// out in map order.
func TestB4AllocsDeterministic(t *testing.T) {
	g := gridTopology(4, 4)
	m := b4Matrix(g)
	first, err := (B4{}).Place(g, m)
	if err != nil {
		t.Fatal(err)
	}
	spilled := 0
	for _, allocs := range first.Allocs {
		if len(allocs) > 1 {
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("no aggregate spilled over several paths; the test checks nothing")
	}
	for run := 0; run < 20; run++ {
		p, err := (B4{}).Place(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Allocs, first.Allocs) {
			t.Fatalf("run %d: allocations differ from the first run", run)
		}
	}
}

// TestB4CacheEquivalence requires B4 to place identically with a private
// cache, an injected cold cache, and an injected cache already holding
// more paths per pair than B4 reads.
func TestB4CacheEquivalence(t *testing.T) {
	g := gridTopology(4, 4)
	m := b4Matrix(g)
	for _, b := range []B4{{}, {Headroom: 0.1}} {
		want, err := b.Place(g, m)
		if err != nil {
			t.Fatal(err)
		}
		warm := NewPathCache(g)
		for _, a := range m.Aggregates {
			warm.Paths(a.Src, a.Dst, 40) // past B4's default MaxPaths
		}
		for name, c := range map[string]*PathCache{"cold": NewPathCache(g), "warm": warm} {
			got, err := b.WithPathCache(c).Place(g, m)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Allocs, want.Allocs) || !reflect.DeepEqual(got.Unplaced, want.Unplaced) {
				t.Fatalf("%s with a %s cache places differently", b.Name(), name)
			}
		}
	}
}
