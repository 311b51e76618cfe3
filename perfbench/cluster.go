package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/cluster"
	"lowlat/internal/obs"
	"lowlat/internal/predict"
	"lowlat/internal/routing"
	"lowlat/internal/serve"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// seamReplica is the serve>backend seam inside each replica daemon, kept
// apart from the front's.
const seamReplica = "replica>backend"

// clusterNets carry the trained landscape: cheap nets swept over a 3x3
// grid of (load, locality) operating points.
var clusterNets = []string{"star-6", "wheel-6", "clique-5", "double-ring-5", "star-9", "wheel-8"}

var (
	landscapeLoads      = []float64{0.6, 0.7, 0.8}
	landscapeLocalities = []float64{0.5, 1.0, 1.5}
	// Off-grid query points inside the trained region.
	queryLoads      = []float64{0.65, 0.75}
	queryLocalities = []float64{0.75, 1.25}
)

// clusterRate is cluster-r2's open-loop rate, about a quarter of the
// mix's closed-loop capacity on two CPUs (see hotRate).
const clusterRate = 300

// Request kinds of the cluster-r2 mix.
const (
	kindRead    = "lookup"
	kindPredict = "predicted"
	kindWrite   = "computed"
)

// clusterStack is three replica daemons behind an R=2 predictive front,
// composed like `lowlatd -cluster r1,r2,r3 -replicas 2 -predict`.
type clusterStack struct {
	dirs     []string
	stores   []*store.Store
	replicas []*daemon
	cb       *cluster.Backend
	pb       *backend.Predictive
	front    *daemon
	client   *serve.Client

	reads     []store.Result // stored cells, in read order
	readBytes [][]byte
	predicted []store.CellSpec // off-grid specs the trained index answers
	writeBase int64            // first randomgeo seed of this stack's writes

	kinds []string // request kind by index, cycled
	ord   []int    // per-kind ordinal by index

	mu      sync.Mutex
	written []store.Result   // guarded by mu
	specs   []store.CellSpec // guarded by mu
}

func (c *clusterStack) close() {
	if c.client != nil {
		closeClient(c.client)
	}
	if c.front != nil {
		_ = c.front.stop()
	}
	if c.pb != nil {
		_ = c.pb.Close()
	}
	if c.cb != nil {
		_ = c.cb.Close()
	}
	for _, d := range c.replicas {
		_ = d.stop()
	}
	for _, st := range c.stores {
		_ = st.Close()
	}
	for _, d := range c.dirs {
		_ = os.RemoveAll(d)
	}
}

// setupCluster starts the replicas and the front, seeds the landscape
// into the cluster, trains the front's index and warms the stack.
func setupCluster(ctx context.Context, cfg config, rec *recorder, n int) (*clusterStack, error) {
	c := &clusterStack{}
	if err := c.start(ctx, cfg, rec, n); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *clusterStack) start(ctx context.Context, cfg config, rec *recorder, n int) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	journal := obs.NewJournal(0)
	// Stable ring labels: ownership hashes the labels, so the same seed
	// places the same cells on the same replicas whatever ports the
	// daemons bound.
	var labels []string
	var remotes []backend.Backend
	for i := 0; i < 3; i++ {
		dir, err := scratch(cfg, fmt.Sprintf("cluster-r2-%d-r%d", n, i))
		if err != nil {
			return err
		}
		c.dirs = append(c.dirs, dir)
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		c.stores = append(c.stores, st)
		l := backend.NewLocal(st, backend.LocalOptions{})
		d, err := startDaemon(ctx, serve.NewBackendServer(wrap(l, seamReplica, rec), serve.Options{}))
		if err != nil {
			return err
		}
		c.replicas = append(c.replicas, d)
		labels = append(labels, fmt.Sprintf("replica-%d", i))
		remotes = append(remotes, wrap(serve.NewRemote(serve.NewClient(d.url), serve.RemoteOptions{}), seamCluster, rec))
	}
	cb, err := cluster.New(remotes, cluster.Options{Replicas: 2, Labels: labels, Journal: journal})
	if err != nil {
		return err
	}
	c.cb = cb

	// Landscape: sweep the cheap nets at every grid operating point into
	// a local store, then write every cell into the cluster, which puts
	// it on both owners of its key.
	seeds := distinctSeeds(rng, cfg.pick(2, 1))
	nets := clusterNets
	if cfg.tiny {
		nets = nets[:2]
	}
	seedDir, err := scratch(cfg, fmt.Sprintf("cluster-r2-%d-seed", n))
	if err != nil {
		return err
	}
	c.dirs = append(c.dirs, seedDir)
	seedSt, err := store.Open(seedDir)
	if err != nil {
		return err
	}
	defer seedSt.Close()
	for _, load := range landscapeLoads {
		for _, loc := range landscapeLocalities {
			grid := sweep.Grid{Nets: nets, Seeds: seeds, Schemes: routing.SchemeNames(), Headrooms: headrooms, Load: load, Locality: loc}
			if _, err := seedStore(ctx, seedSt, grid, cfg.workers); err != nil {
				return err
			}
		}
	}
	cells := seedSt.Results()
	for _, r := range cells {
		if err := cb.Put(r); err != nil {
			return fmt.Errorf("seed cluster: %w", err)
		}
	}

	pb := backend.NewPredictive(wrap(cb, seamPredict, rec), backend.PredictiveOptions{})
	c.pb = pb
	trained, err := cb.QueryContext(ctx, sweep.Filter{})
	if err != nil {
		return fmt.Errorf("training fan-out: %w", err)
	}
	pb.Train(trained)
	front, err := startDaemon(ctx, serve.NewBackendServer(wrap(pb, seamServe, rec), serve.Options{Journal: journal}))
	if err != nil {
		return err
	}
	c.front = front
	c.client = clientFor(front.url, cfg.workers)

	// Reads cycle through every stored cell in a seeded order: more keys
	// than the front's 512-entry LRU, so each read misses it and fans out
	// to both owners.
	for _, i := range rng.Perm(len(cells)) {
		b, err := store.MarshalResult(cells[i])
		if err != nil {
			return err
		}
		c.reads = append(c.reads, cells[i])
		c.readBytes = append(c.readBytes, b)
	}
	if c.predicted, err = predictable(pb.Index(), nets, seeds); err != nil {
		return err
	}
	rng.Shuffle(len(c.predicted), func(i, j int) { c.predicted[i], c.predicted[j] = c.predicted[j], c.predicted[i] })
	c.writeBase = 1 + rng.Int63n(1<<40)

	// The mix: 60% reads, 25% predicted places, 15% fresh writes. The
	// proportions are an assumption, not measured traffic: nothing in the
	// repository records a production mix. With more reads than the other
	// two kinds together, the gated latency_p50_ms falls among the
	// lookups, so it gates lookup latency only; predicted-place and write
	// cost reach a gated metric through throughput_ops_s alone.
	c.kinds = make([]string, 1<<16)
	c.ord = make([]int, len(c.kinds))
	count := map[string]int{}
	for i := range c.kinds {
		k := kindRead
		switch x := rng.Float64(); {
		case x >= 0.85:
			k = kindWrite
		case x >= 0.6:
			k = kindPredict
		}
		c.kinds[i], c.ord[i] = k, count[k]
		count[k]++
	}
	warm := closedLoop(ctx, time.Hour, cfg.pick(300, 30), cfg.workers, c.send("warm", 0))
	for _, s := range warm {
		if s.err != nil {
			return fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return nil
}

// predictable lists off-grid specs of the landscape nets that the
// trained index answers, so predicted places never fall back.
func predictable(idx *predict.Index, nets []string, seeds []int64) ([]store.CellSpec, error) {
	var out []store.CellSpec
	for _, load := range queryLoads {
		for _, loc := range queryLocalities {
			for _, s := range specsFor(nets, seeds, load, loc) {
				net, err := sweep.ResolveNet(s.Net)
				if err != nil {
					return nil, err
				}
				scheme, err := backend.CheckSpec(s)
				if err != nil {
					return nil, err
				}
				at := predict.Coord{Headroom: routing.Headroom(scheme), Load: s.Load, Locality: s.Locality}
				if _, ok := idx.Predict(store.Digest(net.Graph.Fingerprint()), scheme.Name(), s.Seed, at); ok {
					out = append(out, s)
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, errors.New("the trained index predicts none of the off-grid query points")
	}
	return out, nil
}

// writeSpec is fresh write k of a phase: a cheap random net absent from
// the landscape, so the predictive tier refuses it and the ring owner
// computes it.
func (c *clusterStack) writeSpec(phase, k int) store.CellSpec {
	names := routing.SchemeNames()
	name := names[k%len(names)]
	h := 0.0
	if s, _ := routing.ByName(name, 0.1); routing.Headroom(s) > 0 && k%2 == 1 {
		h = 0.1
	}
	net := fmt.Sprintf("randomgeo:8:%d", c.writeBase+int64(phase)<<32+int64(k))
	return store.CellSpec{Net: net, Seed: 1, Scheme: name, Headroom: h, Locality: 1}.Normalized()
}

// send issues request i of the mix and checks its answer. phase numbers
// keep each phase's writes distinct.
func (c *clusterStack) send(name string, phase int) sendFunc {
	return func(ctx context.Context, i int) (string, error) {
		j := i % len(c.kinds)
		kind := c.kinds[j]
		k := c.ord[j] + i/len(c.kinds)*len(c.kinds)
		ctx = withID(ctx, name, i)
		switch kind {
		case kindRead:
			n := k % len(c.reads)
			r, err := c.client.Cell(ctx, c.reads[n].Key.String())
			if err != nil {
				return kind, err
			}
			return kind, sameBytes(r, c.readBytes[n])
		case kindPredict:
			s := c.predicted[k%len(c.predicted)]
			resp, err := c.client.Place(ctx, placeRequest(s))
			if err != nil {
				return kind, err
			}
			if resp.Source != string(backend.SourcePredicted) || !resp.Predicted || resp.Result.Key != (store.CellKey{}) {
				return kind, fmt.Errorf("place %s: source %q predicted=%v key %s, want a keyless prediction", s, resp.Source, resp.Predicted, resp.Result.Key)
			}
			return kind, nil
		default:
			s := c.writeSpec(phase, k)
			resp, err := c.client.Place(ctx, placeRequest(s))
			if err != nil {
				return kind, err
			}
			if resp.Source != string(backend.SourceComputed) || resp.Result.Key == (store.CellKey{}) {
				return kind, fmt.Errorf("place %s answered from %q, want a fresh computation", s, resp.Source)
			}
			c.mu.Lock()
			c.written = append(c.written, resp.Result)
			c.specs = append(c.specs, s)
			c.mu.Unlock()
			return kind, nil
		}
	}
}

// clusterCounters snapshots the stack between phases. front scrapes the
// replicas through the cluster, so it is never taken while load runs.
type clusterCounters struct {
	front    serve.Stats
	cluster  backend.Stats
	replicas []serve.Stats // each replica's own, read in process
}

func (c *clusterStack) counters() clusterCounters {
	out := clusterCounters{front: c.front.srv.Stats(), cluster: c.cb.Stats()}
	for _, d := range c.replicas {
		out.replicas = append(out.replicas, d.srv.Stats())
	}
	return out
}

// replicaStage merges one stage's phase delta over every replica.
func replicaStage(after, before clusterCounters, stage string) obs.Snapshot {
	var out obs.Snapshot
	for i := range after.replicas {
		out.Merge(stageDelta(after.replicas[i].Stages, before.replicas[i].Stages, stage))
	}
	return out
}

// frontStage is the front daemon's own phase delta of one stage: its
// stats merge the replicas' stages in, so their deltas are taken out.
func frontStage(after, before clusterCounters, stage string) obs.Snapshot {
	return delta(stageDelta(after.front.Stages, before.front.Stages, stage), replicaStage(after, before, stage))
}

func runClusterR2(ctx context.Context, cfg config) (*report, error) {
	rep := &report{}
	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
	}
	var c *clusterStack
	err := quietSetups(rep, cfg.setups(), func(n int) error {
		if c != nil {
			c.close()
			c = nil
		}
		var err error
		c, err = setupCluster(ctx, cfg, rec, n)
		return err
	})
	if c != nil {
		defer c.close()
	}
	if err != nil {
		return nil, err
	}
	rep.note("cluster-r2: 3 replicas, R=2, predictive front; %d stored cells, %d predictable points; open loop at %d/s (60%% lookups, 25%% predicted, 15%% fresh writes)",
		len(c.reads), len(c.predicted), clusterRate)

	if !cfg.trace {
		open := cfg.seconds * 6 / 10
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		all, kept, err := quietOpenLoop(ctx, rep, clusterRate, open, cfg.workers, c.send("open", 1))
		if err != nil {
			return nil, err
		}
		rep.account(all)
		rep.e2eLatency(kept)
		clusterAnswers(rep, kept)
		// Peak RSS is read over the open loop, whose fixed rate fixes the
		// allocation rate; in the closed loop it would track CPU speed.
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		cl, rate, err := quietClosedLoop(ctx, rep, cfg.seconds-open, cfg.workers, c.send("closed", 2))
		if err != nil {
			return nil, err
		}
		rep.account(cl)
		rep.add("throughput_ops_s", "1/s", rate, len(cl))
		rep.add("peak_rss_mb", "MB", rss, 1)
	} else {
		// Traced run, as on serve-hot: the open loop twice, spans off
		// then on; then the replay ladder.
		half := cfg.seconds / 2
		n := int(clusterRate * half.Seconds())
		plain, err := openLoop(ctx, clusterRate, n, cfg.workers, c.send("plain", 1))
		if err != nil {
			return nil, err
		}
		rep.account(plain)
		before := c.counters()
		rec.enable(true)
		ss, err := openLoop(ctx, clusterRate, n, cfg.workers, c.send("traced", 2))
		rec.enable(false)
		if err != nil {
			return nil, err
		}
		after := c.counters()
		rep.account(ss)
		clusterAnswers(rep, ss)
		rep.e2eLatency(ss)
		rep.overhead(plain, ss)
		c.layers(rep, ss, rec.take(), before, after)
	}
	if err := c.check(ctx, cfg, rep); err != nil {
		return nil, err
	}
	if cfg.trace {
		rng := rand.New(rand.NewSource(cfg.seed + 1))
		c.mu.Lock()
		writes := pickN(rng, c.specs, cfg.pick(12, 2))
		c.mu.Unlock()
		specs := append(pickN(rng, c.predicted, cfg.pick(12, 2)), writes...)
		return rep, ladder(ctx, cfg, rep, specs)
	}
	return rep, nil
}

// clusterAnswers reports client latency by request kind.
func clusterAnswers(rep *report, ss []sample) {
	rep.latencyMetrics("answer.lookup", ofClass(ss, kindRead), true)
	rep.latencyMetrics("answer.predicted", ofClass(ss, kindPredict), false)
	rep.latencyMetrics("answer.computed", ofClass(ss, kindWrite), true)
	lag := durations(ss, sample.lag)
	rep.add("loadgen.lag_p99_ms", "ms", quantile(lag, 0.99), len(lag))
}

// layers reports the traced phase's per-layer numbers.
func (c *clusterStack) layers(rep *report, ss []sample, spans []span, before, after clusterCounters) {
	type key struct{ seam, op string }
	durs := make(map[key][]float64)
	byID := make(map[key]map[string]time.Duration)
	for _, s := range spans {
		k := key{s.seam, s.op}
		durs[k] = append(durs[k], us(s.dur))
		if s.id != "" {
			if byID[k] == nil {
				byID[k] = make(map[string]time.Duration)
			}
			byID[k][s.id] += s.dur
		}
	}
	p50 := func(k key) (float64, int) { return quantile(durs[k], 0.5), len(durs[k]) }

	v, n := p50(key{seamCluster, "place"})
	rep.add("cluster.replica_place_p50_us", "us", v, n)
	v, n = p50(key{seamCluster, "put"})
	rep.add("cluster.replicate_p50_us", "us", v, n)
	v, n = p50(key{seamCluster, "lookup"})
	rep.add("cluster.replica_lookup_p50_us", "us", v, n)
	fronts := len(durs[key{seamPredict, "lookup"}])
	rep.add("cluster.lookup_fanout", "ratio", ratio(float64(n), float64(fronts)), fronts)
	rep.add("cluster.replicated", "count", float64(after.cluster.Replicated-before.cluster.Replicated), 1)
	rep.add("cluster.read_repairs", "count", float64(after.cluster.ReadRepairs-before.cluster.ReadRepairs), 1)
	rep.add("cluster.rerouted", "count", float64(after.cluster.Rerouted-before.cluster.Rerouted), 1)

	cell := frontStage(after, before, "http_cell")
	rep.add("serve.http_cell_p50_us", "us", snapQ(cell, 0.5, time.Microsecond), int(cell.Count))
	place := frontStage(after, before, "http_place")
	rep.add("serve.http_place_p50_us", "us", snapQ(place, 0.5, time.Microsecond), int(place.Count))
	rep.add("serve.http_place_p99_us", "us", snapQ(place, 0.99, time.Microsecond), int(place.Count))
	hits := float64(after.front.CacheHits - before.front.CacheHits)
	misses := float64(after.front.CacheMisses - before.front.CacheMisses)
	rep.add("serve.cache_hit_frac", "frac", ratio(hits, hits+misses), int(hits+misses))
	var rejected, coalesced, places, memo int64
	for i := range after.replicas {
		a, b := after.replicas[i], before.replicas[i]
		rejected += a.Rejected - b.Rejected
		coalesced += a.Coalesced - b.Coalesced
		places += a.PlaceRequests - b.PlaceRequests
		memo += a.MemoHits - b.MemoHits
	}
	rep.add("serve.rejected", "count", float64(rejected), 1)
	rep.add("serve.coalesced", "count", float64(coalesced+after.front.Coalesced-before.front.Coalesced), 1)

	matrix := replicaStage(after, before, obs.StageMatrix)
	rep.add("backend.matrix_ms", "ms", snapQ(matrix, 0.5, time.Millisecond), int(matrix.Count))
	solve := replicaStage(after, before, obs.StageSolve)
	rep.add("backend.solve_ms", "ms", snapQ(solve, 0.5, time.Millisecond), int(solve.Count))
	read := replicaStage(after, before, obs.StageStoreRead)
	rep.add("backend.store_read_p50_us", "us", snapQ(read, 0.5, time.Microsecond), int(read.Count))
	rep.add("backend.memo_hit_frac", "frac", ratio(float64(memo), float64(places)), int(places))

	pred := stageDelta(after.front.Stages, before.front.Stages, obs.StagePredict)
	rep.add("predict.predict_p50_us", "us", snapQ(pred, 0.5, time.Microsecond), int(pred.Count))
	hit := float64(after.front.Predicted - before.front.Predicted)
	fall := float64(after.front.PredictFallbacks - before.front.PredictFallbacks)
	rep.add("predict.hit_frac", "frac", ratio(hit, hit+fall), int(hit+fall))

	// Computed writes, broken into the self time of each traced layer:
	// the spans nest, so their self times add up to the front span, and
	// coverage is the share of the client's time inside it.
	var inside, total time.Duration
	var skin, pr, cl, hop, be []float64
	for i, s := range ss {
		id := fmt.Sprintf("traced-%d", i)
		f, ok := byID[key{seamServe, "place"}][id]
		if s.class != kindWrite || s.err != nil || !ok {
			continue
		}
		p := byID[key{seamPredict, "place"}][id]
		r := byID[key{seamCluster, "place"}][id]
		b := byID[key{seamReplica, "place"}][id]
		e2e := s.done - s.sent
		inside += f
		total += e2e
		skin = append(skin, ms(e2e-f))
		pr = append(pr, ms(f-p))
		cl = append(cl, ms(p-r))
		hop = append(hop, ms(r-b))
		be = append(be, ms(b))
	}
	rep.add("trace.coverage", "frac", ratio(float64(inside), float64(total)), len(skin))
	rep.note("cluster-r2 computed write, median self time (ms): client+front HTTP %.3f, predict %.3f, cluster incl. replication %.3f, replica hop %.3f, replica backend %.3f",
		median(skin), median(pr), median(cl), median(hop), median(be))
}

// check verifies the writes after the run: both owners hold every
// written cell, an anti-entropy heal finds nothing to copy, and a
// seeded sample recomputes to identical bytes.
func (c *clusterStack) check(ctx context.Context, cfg config, rep *report) error {
	c.mu.Lock()
	written := append([]store.Result(nil), c.written...)
	specs := append([]store.CellSpec(nil), c.specs...)
	c.mu.Unlock()
	for _, r := range written {
		want, err := store.MarshalResult(r)
		if err != nil {
			return err
		}
		for _, o := range c.cb.Owners(r.Key.String()) {
			got, ok := c.stores[o].Get(r.Key)
			if !ok {
				rep.fail("owner %d lacks written cell %s", o, r.Key)
				continue
			}
			if err := sameBytes(got, want); err != nil {
				rep.fail("owner %d: %v", o, err)
			}
		}
	}
	heal, err := c.cb.Heal(ctx)
	if err != nil {
		return fmt.Errorf("heal: %w", err)
	}
	if heal.Healed != 0 || heal.Failed != 0 {
		rep.fail("heal after the run copied %d cells and failed %d, want none", heal.Healed, heal.Failed)
	}
	rng := rand.New(rand.NewSource(cfg.seed + 2))
	idx := rng.Perm(len(written))[:min(len(written), cfg.pick(6, 2))]
	var sample []store.CellSpec
	var want [][]byte
	for _, i := range idx {
		b, err := store.MarshalResult(written[i])
		if err != nil {
			return err
		}
		sample = append(sample, specs[i])
		want = append(want, b)
	}
	dir, err := scratch(cfg, "cluster-r2-check")
	if err != nil {
		return err
	}
	if err := recompute(ctx, dir, sample, want); err != nil {
		rep.fail("%v", err)
	}
	return nil
}
