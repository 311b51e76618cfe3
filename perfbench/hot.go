package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/routing"
	"lowlat/internal/serve"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// hotNets are cheap nets: a whole matrix-and-nine-schemes group costs a
// few milliseconds, so set-up can seed ~1.2k cells quickly.
var hotNets = []string{"star-6", "star-9", "wheel-6", "wheel-8", "clique-5", "clique-6", "double-ring-5", "double-ring-6"}

// hotRate is serve-hot's open-loop rate, about 15% of one daemon's
// closed-loop capacity on two CPUs. Nearer capacity, the swings in a
// shared machine's speed push queueing delay up nonlinearly and the
// latencies stop repeating from run to run.
const hotRate = 2000

// hotStack is one seeded default daemon.
type hotStack struct {
	dir    string
	st     *store.Store
	local  *backend.Local
	d      *daemon
	client *serve.Client
	specs  []store.CellSpec
	want   map[string][]byte // spec string -> seeded cell bytes
	draws  []int             // Zipf-drawn spec indices, cycled
}

func (h *hotStack) close() {
	closeClient(h.client)
	_ = h.d.stop()
	_ = h.st.Close()
	_ = os.RemoveAll(h.dir)
}

// setupServeHot seeds a store with ~1.2k cells, starts a default daemon
// (serve.NewBackendServer over backend.Local) and warms its LRU.
func setupServeHot(ctx context.Context, cfg config, rec *recorder, n int) (*hotStack, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	seeds := distinctSeeds(rng, cfg.pick(17, 2))
	dir, err := scratch(cfg, fmt.Sprintf("serve-hot-%d", n))
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	keys, err := seedStore(ctx, st, sweep.Grid{Nets: hotNets, Seeds: seeds, Schemes: routing.SchemeNames(), Headrooms: headrooms}, cfg.workers)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	h := &hotStack{dir: dir, st: st, specs: specsFor(hotNets, seeds, 0, 1), want: make(map[string][]byte)}
	for _, s := range h.specs {
		r, ok := st.Get(keys[s.String()])
		if !ok {
			_ = st.Close()
			return nil, fmt.Errorf("seeded store lacks %s", s)
		}
		if h.want[s.String()], err = store.MarshalResult(r); err != nil {
			_ = st.Close()
			return nil, err
		}
	}
	h.local = backend.NewLocal(st, backend.LocalOptions{})
	srv := serve.NewBackendServer(wrap(h.local, seamServe, rec), serve.Options{})
	if h.d, err = startDaemon(ctx, srv); err != nil {
		_ = st.Close()
		return nil, err
	}
	h.client = clientFor(h.d.url, cfg.workers)

	// Zipf(1.1) over a seeded ranking of the specs: the key set is larger
	// than the daemon's 512-entry LRU, so a tail of requests misses it.
	perm := rng.Perm(len(h.specs))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(h.specs)-1))
	h.draws = make([]int, 1<<16)
	for i := range h.draws {
		h.draws[i] = perm[z.Uint64()]
	}
	warm := closedLoop(ctx, time.Hour, cfg.pick(4000, 200), cfg.workers, h.send("warm"))
	for _, s := range warm {
		if s.err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return h, nil
}

// send places draw i and checks the answer.
func (h *hotStack) send(phase string) sendFunc {
	return func(ctx context.Context, i int) (string, error) {
		spec := h.specs[h.draws[i%len(h.draws)]]
		resp, err := h.client.Place(withID(ctx, phase, i), placeRequest(spec))
		if err != nil {
			return "error", err
		}
		if resp.Source != string(backend.SourceCache) && resp.Source != string(backend.SourceStore) {
			return resp.Source, fmt.Errorf("place %s answered from %q, want cache or store", spec, resp.Source)
		}
		return resp.Source, sameBytes(resp.Result, h.want[spec.String()])
	}
}

// hotCounters snapshots the daemon's and backend's counters in process.
type hotCounters struct {
	srv   serve.Stats
	local backend.Stats
}

func (h *hotStack) counters() hotCounters {
	return hotCounters{srv: h.d.srv.Stats(), local: h.local.Stats()}
}

func runServeHot(ctx context.Context, cfg config) (*report, error) {
	rep := &report{}
	var rec *recorder
	if cfg.trace {
		rec = &recorder{}
	}
	var h *hotStack
	err := quietSetups(rep, cfg.setups(), func(n int) error {
		if h != nil {
			h.close()
			h = nil
		}
		var err error
		h, err = setupServeHot(ctx, cfg, rec, n)
		return err
	})
	if h != nil {
		defer h.close()
	}
	if err != nil {
		return nil, err
	}
	rep.note("serve-hot: %d seeded cells, Zipf(1.1) over them, LRU 512, open loop at %d/s", len(h.specs), hotRate)

	if !cfg.trace {
		open := cfg.seconds * 6 / 10
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		before := h.counters()
		all, kept, err := quietOpenLoop(ctx, rep, hotRate, open, cfg.workers, h.send("open"))
		if err != nil {
			return nil, err
		}
		after := h.counters()
		h.placeMetrics(rep, all, before, after)
		rep.e2eLatency(kept)
		// Peak RSS is read over the open loop, whose fixed rate fixes the
		// allocation rate; in the closed loop it would track CPU speed.
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		runtime.GC()
		cl, rate, err := quietClosedLoop(ctx, rep, cfg.seconds-open, cfg.workers, h.send("closed"))
		if err != nil {
			return nil, err
		}
		rep.account(cl)
		rep.add("throughput_ops_s", "1/s", rate, len(cl))
		rep.add("peak_rss_mb", "MB", rss, 1)
		return rep, nil
	}

	// Traced run: the same open loop twice, spans off then on, so the
	// difference is the tracing overhead; then the replay ladder.
	half := cfg.seconds / 2
	n := int(hotRate * half.Seconds())
	plain, err := openLoop(ctx, hotRate, n, cfg.workers, h.send("plain"))
	if err != nil {
		return nil, err
	}
	rep.account(plain)
	rec.enable(true)
	before := h.counters()
	ss, err := openLoop(ctx, hotRate, n, cfg.workers, h.send("traced"))
	after := h.counters()
	rec.enable(false)
	if err != nil {
		return nil, err
	}
	h.placeMetrics(rep, ss, before, after)
	rep.e2eLatency(ss)
	rep.overhead(plain, ss)

	spans := rec.take()
	var place []float64
	var inside, total time.Duration
	byID := make(map[string]time.Duration)
	for _, s := range spans {
		if s.seam == seamServe && s.op == "place" {
			place = append(place, us(s.dur))
			byID[s.id] += s.dur
		}
	}
	for i, s := range ss {
		if d, ok := byID[fmt.Sprintf("traced-%d", i)]; ok && s.err == nil {
			inside += d
			total += s.done - s.sent
		}
	}
	rep.add("backend.place_store_p50_us", "us", quantile(place, 0.5), len(place))
	// Coverage on serve-hot: the share of a store-hit request's client
	// time spent below the serve layer.
	rep.add("trace.coverage", "frac", ratio(float64(inside), float64(total)), len(byID))
	return rep, ladder(ctx, cfg, rep, hotLadderInputs(cfg, h))
}

// placeMetrics reports a measured open-loop phase: client latencies by
// answer source next to the daemon's own http_place window over the
// same phase, and the counters that explain them.
func (h *hotStack) placeMetrics(rep *report, ss []sample, before, after hotCounters) {
	rep.account(ss)
	rep.latencyMetrics("answer.cache", ofClass(ss, string(backend.SourceCache)), false)
	rep.latencyMetrics("answer.store", ofClass(ss, string(backend.SourceStore)), false)
	lag := durations(ss, sample.lag)
	rep.add("loadgen.lag_p99_ms", "ms", quantile(lag, 0.99), len(lag))

	win := stageDelta(after.srv.Stages, before.srv.Stages, "http_place")
	rep.add("serve.http_place_p50_us", "us", snapQ(win, 0.5, time.Microsecond), int(win.Count))
	rep.add("serve.http_place_p99_us", "us", snapQ(win, 0.99, time.Microsecond), int(win.Count))
	client := quantile(durations(ss, sample.latency), 0.5) * 1000
	rep.add("serve.client_gap_p50_us", "us", client-snapQ(win, 0.5, time.Microsecond), len(ss))
	hits := float64(after.srv.CacheHits - before.srv.CacheHits)
	misses := float64(after.srv.CacheMisses - before.srv.CacheMisses)
	rep.add("serve.cache_hit_frac", "frac", ratio(hits, hits+misses), int(hits+misses))
	rep.add("serve.rejected", "count", float64(after.srv.Rejected-before.srv.Rejected), 1)
	rep.add("serve.coalesced", "count", float64(after.srv.Coalesced-before.srv.Coalesced), 1)
	read := stageDelta(after.local.Stages, before.local.Stages, obs.StageStoreRead)
	rep.add("backend.store_read_p50_us", "us", snapQ(read, 0.5, time.Microsecond), int(read.Count))
	places := float64(after.local.Places - before.local.Places)
	rep.add("backend.memo_hit_frac", "frac", ratio(float64(after.local.MemoHits-before.local.MemoHits), places), int(places))
	rep.note("serve-hot: client p99 %.3f ms (from due time) vs daemon http_place p99 %.3f ms over the same phase",
		quantile(durations(ss, sample.latency), 0.99), snapQ(win, 0.99, time.Millisecond))
}

// hotLadderInputs replays a sample of serve-hot's own cells.
func hotLadderInputs(cfg config, h *hotStack) []store.CellSpec {
	rng := rand.New(rand.NewSource(cfg.seed + 1))
	return pickN(rng, h.specs, cfg.pick(72, 9))
}
