package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"lowlat/internal/obs"
	"lowlat/internal/routing"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// coldNets are small and medium zoo nets. Heavy nets are left out: one
// gts-like cell costs 0.5-1.3 s and a mesh-40-dense cell 3-18 s, too
// much spread for a steady total.
var coldNets = []string{
	"ring-12", "wheel-12", "star-12", "clique-8", "double-ring-8", "ladder-6",
	"chord-ring-16-2", "mesh-16-sparse", "grid-3x4", "ring-20", "ladder-8", "grid-4x4",
}

// coldSweep is what one sweep.Run into an empty store measured.
type coldSweep struct {
	wall     time.Duration
	plan     time.Duration // Run start to the first solve
	solve    time.Duration // first solve to the last checkpoint
	cells    []coldCell
	computed int
}

// coldCell is one computed cell: its spec, its bytes and its latency
// from solve start to checkpoint.
type coldCell struct {
	spec    store.CellSpec
	bytes   []byte
	latency time.Duration
}

// runSweep sweeps grid into a fresh empty store.
func runSweep(ctx context.Context, cfg config, name string, grid sweep.Grid, reg *obs.Registry) (coldSweep, error) {
	dir, err := scratch(cfg, name)
	if err != nil {
		return coldSweep{}, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return coldSweep{}, err
	}
	defer func() { _ = st.Close(); _ = os.RemoveAll(dir) }()

	var mu sync.Mutex
	started := make(map[store.CellKey]time.Time)
	specs := make(map[store.CellKey]store.CellSpec)
	var first time.Time
	var out coldSweep
	t0 := time.Now()
	rep, err := sweep.Run(ctx, st, grid, sweep.Options{
		Workers: cfg.workers,
		Obs:     reg,
		OnPlace: func(c sweep.Cell) {
			now := time.Now()
			mu.Lock()
			if first.IsZero() {
				first = now
			}
			started[c.Key] = now
			specs[c.Key] = requestSpec(c)
			mu.Unlock()
		},
		OnResult: func(_ int, r store.Result) {
			now := time.Now()
			b, _ := store.MarshalResult(r)
			mu.Lock()
			out.cells = append(out.cells, coldCell{spec: specs[r.Key], bytes: b, latency: now.Sub(started[r.Key])})
			mu.Unlock()
		},
	})
	out.wall = time.Since(t0)
	if err != nil {
		return out, fmt.Errorf("sweep: %w", err)
	}
	if rep.Computed != rep.Planned || rep.Failed != 0 {
		return out, fmt.Errorf("sweep computed %d of %d planned cells, %d failed", rep.Computed, rep.Planned, rep.Failed)
	}
	out.computed = rep.Computed
	out.plan = first.Sub(t0)
	out.solve = out.wall - out.plan
	return out, nil
}

// sweptNets are the cold nets a configuration sweeps.
func sweptNets(cfg config) []string {
	if cfg.tiny {
		return coldNets[:2]
	}
	return coldNets
}

// coldGrid is one sweep: every cold net at four fresh seeds, all six
// schemes, two headrooms (432 cells). Few large sweeps keep the share of
// time lost at sweep.Run's plan and drain barriers small.
func coldGrid(cfg config, rng *rand.Rand) sweep.Grid {
	return sweep.Grid{Nets: sweptNets(cfg), Seeds: distinctSeeds(rng, cfg.pick(4, 1)), Schemes: routing.SchemeNames(), Headrooms: headrooms}
}

// coldSweeps is how many sweeps a measured phase of d holds: one takes
// about four seconds on two CPUs.
func coldSweeps(d time.Duration) int { return max(1, int(d/(4*time.Second))) }

// coldPhase sweeps fresh grids back to back until d has passed.
func coldPhase(ctx context.Context, cfg config, rng *rand.Rand, d time.Duration, reg *obs.Registry) ([]coldSweep, error) {
	var out []coldSweep
	t0 := time.Now()
	for len(out) == 0 || time.Since(t0) < d {
		s, err := runSweep(ctx, cfg, fmt.Sprintf("sweep-cold-%d", len(out)), coldGrid(cfg, rng), reg)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// cellSamples turns computed cells, in completion order, into samples
// whose latency is the cell's solve start to checkpoint.
func cellSamples(sweeps []coldSweep) []sample {
	var out []sample
	for _, s := range sweeps {
		for _, c := range s.cells {
			out = append(out, sample{done: c.latency})
		}
	}
	return out
}

func runSweepCold(ctx context.Context, cfg config) (*report, error) {
	rep := &report{}
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up is what a batch user pays before the first cell: one
	// warm-up sweep over every cold net (108 cells). Set-up n sweeps
	// matrix seed n+1 whatever --seed is, so every run's set-ups do the
	// same work. The nets are resolved once beforehand, outside the
	// timing, which only the first set-up would otherwise pay for.
	nets := sweptNets(cfg)
	for _, name := range nets {
		if _, err := sweep.ResolveNet(name); err != nil {
			return nil, err
		}
	}
	err := quietSetups(rep, cfg.setups(), func(n int) error {
		warm := sweep.Grid{Nets: nets, Seeds: []int64{int64(n + 1)}, Schemes: routing.SchemeNames(), Headrooms: headrooms}
		_, err := runSweep(ctx, cfg, "sweep-cold-warm", warm, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	var sweeps []coldSweep
	if !cfg.trace {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		// Each sweep is a slice of the phase; throughput is the median
		// over the kept sweeps of each one's cells per second of wall
		// time, planning included.
		var rates []float64
		kept, disturbed, err := measureQuiet(coldSweeps(cfg.seconds), func(i int) error {
			s, err := runSweep(ctx, cfg, fmt.Sprintf("sweep-cold-%d", i), coldGrid(cfg, rng), nil)
			sweeps = append(sweeps, s)
			rates = append(rates, float64(s.computed)/s.wall.Seconds())
			return err
		})
		if err != nil {
			return nil, err
		}
		quiet := pick(sweeps, kept)
		cells := 0
		for _, s := range quiet {
			cells += s.computed
		}
		rep.add("throughput_ops_s", "1/s", median(pick(rates, kept)), cells)
		rep.e2eLatency(cellSamples(quiet))
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.add("peak_rss_mb", "MB", rss, 1)
		rep.note("sweep-cold: %d sweeps of %d cells into empty stores, %d workers; %d disturbed by steal", len(sweeps), sweeps[0].computed, cfg.workers, disturbed)
	} else {
		// Traced run: the same grids swept without and with the
		// sweep_place stage registry, so the difference is its cost; then
		// the replay ladder.
		seed := rng.Int63()
		plain, err := coldPhase(ctx, cfg, rand.New(rand.NewSource(seed)), cfg.seconds/2, nil)
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		if sweeps, err = coldPhase(ctx, cfg, rand.New(rand.NewSource(seed)), cfg.seconds/2, reg); err != nil {
			return nil, err
		}
		coldLayers(rep, cfg, reg, plain, sweeps)
		rep.e2eLatency(cellSamples(sweeps))
	}
	if err := checkSweeps(ctx, cfg, rep, rng, sweeps); err != nil {
		return nil, err
	}
	if cfg.trace {
		var specs []store.CellSpec
		for _, c := range sweeps[0].cells {
			specs = append(specs, c.spec)
		}
		return rep, ladder(ctx, cfg, rep, pickN(rng, specs, cfg.pick(40, 4)))
	}
	return rep, nil
}

// coldLayers reports the sweep and engine layers of the traced phase.
func coldLayers(rep *report, cfg config, reg *obs.Registry, plain, sweeps []coldSweep) {
	solve := reg.Snapshot()[obs.StageSweepPlace]
	rep.add("sweep.place_p50_ms", "ms", snapQ(solve, 0.5, time.Millisecond), int(solve.Count))
	var plans []float64
	var plan, solveWall, wall, inCell time.Duration
	cells := 0
	for _, s := range sweeps {
		plans = append(plans, s.plan.Seconds())
		plan += s.plan
		solveWall += s.solve
		wall += s.wall
		for _, c := range s.cells {
			inCell += c.latency
			cells++
		}
	}
	rep.add("sweep.plan_s", "s", median(plans), len(plans))
	solveSum := time.Duration(solve.SumNS)
	rep.add("sweep.post_solve_ms", "ms", ms(inCell-solveSum)/float64(max(cells, 1)), cells)
	workers := time.Duration(cfg.workers)
	rep.add("engine.busy_frac", "frac", ratio(float64(solveSum), float64(workers*solveWall)), cells)
	// Coverage: planning wall plus solve time per worker, over the sweeps'
	// wall time.
	rep.add("trace.coverage", "frac", ratio(float64(plan+solveSum/workers), float64(wall)), len(sweeps))
	rep.overhead(cellSamples(plain), cellSamples(sweeps))
}

// checkSweeps recomputes a seeded sample of the computed cells through a
// fresh backend.Local and checks the bytes match.
func checkSweeps(ctx context.Context, cfg config, rep *report, rng *rand.Rand, sweeps []coldSweep) error {
	var all []coldCell
	for _, s := range sweeps {
		rep.attempted += s.computed
		all = append(all, s.cells...)
	}
	picked := pickN(rng, all, cfg.pick(6, 2))
	specs := make([]store.CellSpec, len(picked))
	want := make([][]byte, len(picked))
	for i, c := range picked {
		specs[i], want[i] = c.spec, c.bytes
	}
	dir, err := scratch(cfg, "sweep-cold-check")
	if err != nil {
		return err
	}
	if err := recompute(ctx, dir, specs, want); err != nil {
		rep.fail("%v", err)
	}
	return nil
}
