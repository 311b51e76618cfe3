package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lowlat/internal/geo"
	"lowlat/internal/graph"
	"lowlat/internal/tm"
)

// randomTopology builds a connected random network with geographic-ish
// delays and uniform 10G links.
func randomTopology(rng *rand.Rand, n int, extra float64) *graph.Graph {
	b := graph.NewBuilder("rand")
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNode(fmt.Sprintf("n%d", i), geo.Point{})
	}
	for i := 0; i < n; i++ {
		b.AddBiLink(ids[i], ids[(i+1)%n], 10e9, 0.001+0.004*rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if rng.Float64() < extra && !(i == 0 && j == n-1) {
				b.AddBiLink(ids[i], ids[j], 10e9, 0.001+0.006*rng.Float64())
			}
		}
	}
	return b.MustBuild()
}

// randomMatrix builds aggregates between random pairs with volumes that
// moderately load the network; Flows is exactly proportional to Volume so
// the path-based (flow-weighted) and link-based (volume-weighted)
// objectives coincide.
func randomMatrix(rng *rand.Rand, g *graph.Graph, pairs int, gbpsMax float64) *tm.Matrix {
	seen := map[[2]graph.NodeID]bool{}
	var aggs []tm.Aggregate
	for len(aggs) < pairs {
		s := graph.NodeID(rng.Intn(g.NumNodes()))
		d := graph.NodeID(rng.Intn(g.NumNodes()))
		if s == d || seen[[2]graph.NodeID{s, d}] {
			continue
		}
		seen[[2]graph.NodeID{s, d}] = true
		gbps := 0.5 + rng.Float64()*gbpsMax
		aggs = append(aggs, tm.Aggregate{
			Src: s, Dst: d,
			Volume: gbps * 1e9,
			Flows:  int(gbps * 1000),
		})
	}
	return tm.New(aggs)
}

// TestPathLPMatchesLinkBasedOptimum is the key optimality check: the
// iterative path-based solver (Figures 12/13 plus our polish pass) must
// reach the same optimal total delay as the exhaustive link-based MCF.
func TestPathLPMatchesLinkBasedOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	trials := 20
	if testing.Short() {
		trials = 5
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		g := randomTopology(rng, 6+rng.Intn(4), 0.3)
		m := randomMatrix(rng, g, 6+rng.Intn(8), 4)

		lbRes, err := LinkBasedLatencyOpt(g, m, 0)
		if err != nil {
			t.Fatalf("trial %d link-based: %v", trial, err)
		}
		p, stats, err := LatencyOpt{Exact: true}.PlaceWithStats(g, m)
		if err != nil {
			t.Fatalf("trial %d path-based: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		if lbRes.MaxOverload > 1+1e-6 {
			// Traffic does not fit; both solvers should agree on the
			// minimal max overload within tolerance.
			if stats.MaxOverload < lbRes.MaxOverload-1e-3 {
				t.Fatalf("trial %d: path-based overload %v beats link-based optimum %v",
					trial, stats.MaxOverload, lbRes.MaxOverload)
			}
			continue
		}
		checked++
		ps := p.LatencyStretch()
		// The path-based solution can never beat the true optimum, and
		// must come within a small tolerance of it.
		if ps < lbRes.Stretch-1e-4 {
			t.Fatalf("trial %d: path-based stretch %v below link-based optimum %v",
				trial, ps, lbRes.Stretch)
		}
		if ps > lbRes.Stretch*1.02+1e-6 {
			t.Fatalf("trial %d: path-based stretch %v misses optimum %v by more than 2%%",
				trial, ps, lbRes.Stretch)
		}
		if stats.MaxOverload > 1+1e-6 {
			t.Fatalf("trial %d: path-based congested (%v) where optimum fits", trial, stats.MaxOverload)
		}
	}
	if checked == 0 {
		t.Fatal("no feasible trials were generated; loosen the load settings")
	}
}

// TestMinMaxNeverWorseThanK10 checks the containment the paper describes:
// unrestricted MinMax always achieves peak utilization at most that of the
// k-limited variant.
func TestMinMaxNeverWorseThanK10(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		g := randomTopology(rng, 8, 0.3)
		m := randomMatrix(rng, g, 10, 5)
		_, full, err := MinMax{}.PlaceWithStats(g, m)
		if err != nil {
			t.Fatal(err)
		}
		_, k2, err := MinMax{K: 2}.PlaceWithStats(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if full.MaxOverload > k2.MaxOverload+1e-4 {
			t.Fatalf("trial %d: full MinMax peak %v worse than K=2 peak %v",
				trial, full.MaxOverload, k2.MaxOverload)
		}
	}
}

// TestAllSchemesProduceValidPlacements fuzzes every scheme on random
// networks and checks structural invariants.
func TestAllSchemesProduceValidPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	schemes := []Scheme{SP{}, B4{}, B4{Headroom: 0.1}, LatencyOpt{},
		LatencyOpt{Headroom: 0.15}, MinMax{}, MinMax{K: 10}}
	for trial := 0; trial < 8; trial++ {
		g := randomTopology(rng, 7+rng.Intn(5), 0.25)
		m := randomMatrix(rng, g, 8+rng.Intn(10), 6)
		for _, s := range schemes {
			p, err := s.Place(g, m)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, s.Name(), err)
			}
			if st := p.LatencyStretch(); st < 1-1e-6 {
				t.Fatalf("trial %d %s: stretch %v below 1", trial, s.Name(), st)
			}
			if ms := p.MaxStretch(); !math.IsInf(ms, 1) && ms < 1-1e-6 {
				t.Fatalf("trial %d %s: max stretch %v below 1", trial, s.Name(), ms)
			}
		}
	}
}

// TestLatencyOptBeatsOrMatchesOthers: no scheme can deliver lower total
// delay than the latency-optimal placement when everything fits.
func TestLatencyOptBeatsOrMatchesOthers(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 8; trial++ {
		g := randomTopology(rng, 8, 0.35)
		m := randomMatrix(rng, g, 8, 2) // light load so everything fits
		opt, stats, err := LatencyOpt{}.PlaceWithStats(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if stats.MaxOverload > 1 {
			continue
		}
		optStretch := opt.LatencyStretch()
		for _, s := range []Scheme{B4{}, MinMax{}, MinMax{K: 10}} {
			p, err := s.Place(g, m)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Fits() {
				continue
			}
			if p.LatencyStretch() < optStretch-1e-4 {
				t.Fatalf("trial %d: %s stretch %v beats optimal %v",
					trial, s.Name(), p.LatencyStretch(), optStretch)
			}
		}
	}
}

func BenchmarkLatencyOptMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := randomTopology(rng, 20, 0.2)
	m := randomMatrix(rng, g, 60, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (LatencyOpt{}).Place(g, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinkBasedMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := randomTopology(rng, 20, 0.2)
	m := randomMatrix(rng, g, 60, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LinkBasedLatencyOpt(g, m, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkB4Place(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	g := randomTopology(rng, 20, 0.2)
	m := randomMatrix(rng, g, 60, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (B4{}).Place(g, m); err != nil {
			b.Fatal(err)
		}
	}
}
