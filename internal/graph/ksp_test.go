package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"lowlat/internal/geo"
)

// allSimplePaths enumerates every loop-free path src->dst by DFS, honoring
// an optional link mask, and returns their delays sorted ascending. Used as
// ground truth for Yen's algorithm.
func allSimplePaths(g *Graph, src, dst NodeID, mask *Mask) []float64 {
	var delays []float64
	visited := make([]bool, g.NumNodes())
	var dfs func(n NodeID, delay float64)
	dfs = func(n NodeID, delay float64) {
		if n == dst {
			delays = append(delays, delay)
			return
		}
		visited[n] = true
		for _, lid := range g.Out(n) {
			if mask.Has(int32(lid)) {
				continue
			}
			l := g.Link(lid)
			if !visited[l.To] {
				dfs(l.To, delay+l.Delay)
			}
		}
		visited[n] = false
	}
	dfs(src, 0)
	sort.Float64s(delays)
	return delays
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	b := NewBuilder("rand")
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddNode(string(rune('A'+i)), geo.Point{})
	}
	// Ring backbone guarantees connectivity.
	for i := 0; i < n; i++ {
		b.AddBiLink(ids[i], ids[(i+1)%n], 1e9, 0.5+rng.Float64())
	}
	for i := 0; i < n; i++ {
		for j := i + 2; j < n; j++ {
			if rng.Float64() < p && !(i == 0 && j == n-1) {
				b.AddBiLink(ids[i], ids[j], 1e9, 0.5+2*rng.Float64())
			}
		}
	}
	return b.MustBuild()
}

func TestKSPOnDiamond(t *testing.T) {
	g := diamond(t)
	a := nid(t, g, "a")
	d := nid(t, g, "d")
	ksp := NewKSP(g, a, d, nil)

	want := []float64{2, 3, 10}
	for i, w := range want {
		p, ok := ksp.At(i)
		if !ok {
			t.Fatalf("path %d missing", i)
		}
		if math.Abs(p.Delay-w) > 1e-12 {
			t.Fatalf("path %d delay = %v, want %v", i, p.Delay, w)
		}
	}
	// The diamond has more simple paths (e.g. a-b-d reversed detours);
	// verify ordering is non-decreasing until exhaustion.
	prev := 0.0
	for i := 0; ; i++ {
		p, ok := ksp.At(i)
		if !ok {
			break
		}
		if p.Delay < prev-1e-12 {
			t.Fatalf("paths out of order at %d: %v < %v", i, p.Delay, prev)
		}
		prev = p.Delay
		if i > 100 {
			t.Fatal("suspiciously many paths in a diamond")
		}
	}
}

func TestKSPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 6+rng.Intn(3), 0.35)
		src := NodeID(rng.Intn(g.NumNodes()))
		dst := NodeID(rng.Intn(g.NumNodes()))
		if src == dst {
			continue
		}
		want := allSimplePaths(g, src, dst, nil)
		ksp := NewKSP(g, src, dst, nil)
		var got []float64
		for i := 0; ; i++ {
			p, ok := ksp.At(i)
			if !ok {
				break
			}
			got = append(got, p.Delay)
			if i > len(want)+5 {
				t.Fatalf("trial %d: KSP produced more paths than exist", trial)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d paths, brute force %d", trial, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: path %d delay %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestKSPUniquePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 8, 0.4)
	ksp := NewKSP(g, 0, 4, nil)
	seen := map[string]bool{}
	for i := 0; ; i++ {
		p, ok := ksp.At(i)
		if !ok {
			break
		}
		if seen[p.Key()] {
			t.Fatalf("duplicate path at index %d: %s", i, p.Format(g))
		}
		seen[p.Key()] = true
		// Verify loop-freeness.
		nodes := p.Nodes(g)
		nodeSeen := map[NodeID]bool{}
		for _, n := range nodes {
			if nodeSeen[n] {
				t.Fatalf("path %d revisits node %d", i, n)
			}
			nodeSeen[n] = true
		}
	}
}

func TestKSPWithBaseMask(t *testing.T) {
	g := diamond(t)
	a := nid(t, g, "a")
	d := nid(t, g, "d")
	sp, _ := g.ShortestPath(a, d, nil, nil)

	mask := NewMask(g.NumLinks())
	for _, l := range sp.Links {
		mask.Set(int32(l))
	}
	ksp := NewKSP(g, a, d, mask)
	p, ok := ksp.At(0)
	if !ok {
		t.Fatal("masked KSP found nothing")
	}
	if math.Abs(p.Delay-3) > 1e-12 {
		t.Fatalf("first masked path delay = %v, want 3", p.Delay)
	}
	for i := 0; ; i++ {
		q, ok := ksp.At(i)
		if !ok {
			break
		}
		for _, l := range q.Links {
			if mask.Has(int32(l)) {
				t.Fatalf("masked link %d appears in path %d", l, i)
			}
		}
	}
}

func TestKSPNoPath(t *testing.T) {
	b := NewBuilder("disc")
	b.AddNode("x", geo.Point{})
	b.AddNode("y", geo.Point{})
	g := b.MustBuild()
	ksp := NewKSP(g, 0, 1, nil)
	if _, ok := ksp.At(0); ok {
		t.Fatal("found a path in a disconnected graph")
	}
}

func TestKSPFirst(t *testing.T) {
	g := diamond(t)
	ksp := NewKSP(g, 0, 3, nil)
	ps := ksp.First(2)
	if len(ps) != 2 {
		t.Fatalf("First(2) returned %d paths", len(ps))
	}
	all := ksp.First(1000)
	if len(all) < 3 {
		t.Fatalf("First(1000) returned only %d paths", len(all))
	}
	if ksp.Generated() != len(all) {
		t.Fatalf("Generated = %d, want %d", ksp.Generated(), len(all))
	}
}

func BenchmarkKSPGrid(b *testing.B) {
	g := benchGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ksp := NewKSP(g, 0, NodeID(g.NumNodes()-1), nil)
		ksp.First(10)
	}
}

// benchGrid is the 6x6 unit-delay grid the path benchmarks run on.
func benchGrid() *Graph {
	bld := NewBuilder("grid")
	const w, h = 6, 6
	ids := make([]NodeID, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ids[y*w+x] = bld.AddNode(string(rune('A'+y))+string(rune('a'+x)), geo.Point{})
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				bld.AddBiLink(ids[y*w+x], ids[y*w+x+1], 1e9, 1)
			}
			if y+1 < h {
				bld.AddBiLink(ids[y*w+x], ids[(y+1)*w+x], 1e9, 1)
			}
		}
	}
	return bld.MustBuild()
}

// BenchmarkShortestPathTree runs one unmasked Dijkstra per op, cycling
// through every source of the grid.
func BenchmarkShortestPathTree(b *testing.B) {
	g := benchGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPathTree(NodeID(i%g.NumNodes()), nil, nil)
	}
}
