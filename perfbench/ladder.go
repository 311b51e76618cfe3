package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
	"lowlat/internal/tmgen"
)

// ladder is the replay ladder: the layer calls one cell costs, made one
// at a time on the workload's own inputs and timed each. For every
// (net, seed, operating point) among specs it generates the calibrated
// matrix, then solves all nine scheme points over one solver cache the
// way backend.Local does, and times the graph and store calls around
// them. Calls are sequential, so each time is the layer's cost alone.
func ladder(ctx context.Context, cfg config, rep *report, specs []store.CellSpec) error {
	dir, err := scratch(cfg, "ladder")
	if err != nil {
		return err
	}
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("ladder store: %w", err)
	}
	defer func() { _ = st.Close(); _ = os.RemoveAll(dir) }()

	times := make(map[string][]float64)
	timed := func(name string, unit time.Duration, f func() error) error {
		t0 := time.Now()
		err := f()
		times[name] = append(times[name], float64(time.Since(t0))/float64(unit))
		return err
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		group := fmt.Sprintf("%s|%d|%g|%g", s.Net, s.Seed, s.Load, s.Locality)
		if seen[group] {
			continue
		}
		seen[group] = true
		net, err := sweep.ResolveNet(s.Net)
		if err != nil {
			return err
		}
		g := net.Graph
		var gen *tmgen.Result
		err = timed("tmgen.generate_ms", time.Millisecond, func() (err error) {
			gen, err = tmgen.Generate(g, tmgen.Config{Seed: s.Seed, Locality: s.Locality, NoLocality: s.Locality == 0, TargetMaxUtil: s.Load})
			return err
		})
		if err != nil {
			return fmt.Errorf("ladder: generate %s: %w", group, err)
		}
		m := gen.Matrix
		_ = timed("store.matrix_digest_us", time.Microsecond, func() error { store.MatrixDigest(g, m); return nil })
		for _, n := range g.Nodes() {
			_ = timed("graph.spt_us", time.Microsecond, func() error { g.ShortestPathTree(n.ID, nil, nil); return nil })
		}
		for i, a := range m.Aggregates {
			if i >= 8 {
				break
			}
			_ = timed("graph.ksp_ms", time.Millisecond, func() error { graph.NewKSP(g, a.Src, a.Dst, nil).First(10); return nil })
		}
		cache := routing.NewSolverCache()
		for _, p := range specsFor([]string{s.Net}, []int64{s.Seed}, s.Load, s.Locality) {
			scheme, err := routing.ByName(p.Scheme, p.Headroom)
			if err != nil {
				return err
			}
			var pl *routing.Placement
			if err := timed("routing.solve_ms."+p.Scheme, time.Millisecond, func() (err error) {
				pl, err = cache.Place(scheme, g, m)
				return err
			}); err != nil {
				return fmt.Errorf("ladder: solve %s: %w", p, err)
			}
			res := store.Result{Key: store.KeyFor(g, m, scheme), Meta: store.Meta{Net: net.Name, Class: net.Class, Seed: p.Seed, Scheme: scheme.Name(),
				Headroom: routing.Headroom(scheme), Load: p.Load, Locality: p.Locality}}
			_ = timed("store.metrics_of_ms", time.Millisecond, func() error { res.Metrics = store.MetricsOf(pl); return nil })
			_ = timed("store.marshal_us", time.Microsecond, func() (err error) { _, err = store.MarshalResult(res); return err })
			if err := timed("store.put_us", time.Microsecond, func() error { return st.Put(res) }); err != nil {
				return fmt.Errorf("ladder: put: %w", err)
			}
			_ = timed("store.get_us", time.Microsecond, func() error { st.Get(res.Key); return nil })
		}
	}
	for _, name := range ladderMetrics {
		rep.add(name.name, name.unit, median(times[name.name]), len(times[name.name]))
	}
	return nil
}

// ladderMetrics are the rungs, each the median of its calls.
var ladderMetrics = []metricSpec{
	{"tmgen.generate_ms", "ms"},
	{"routing.solve_ms.sp", "ms"},
	{"routing.solve_ms.b4", "ms"},
	{"routing.solve_ms.mplste", "ms"},
	{"routing.solve_ms.minmax", "ms"},
	{"routing.solve_ms.minmax-k10", "ms"},
	{"routing.solve_ms.ldr", "ms"},
	{"graph.spt_us", "us"},
	{"graph.ksp_ms", "ms"},
	{"store.metrics_of_ms", "ms"},
	{"store.matrix_digest_us", "us"},
	{"store.marshal_us", "us"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
}
