package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// Seam names: the three backend boundaries the benchmark composes and
// traces.
const (
	seamServe   = "serve>backend"
	seamPredict = "predict>inner"
	seamCluster = "cluster>replica"
)

// span is one timed call across a seam. Spans of one HTTP request share
// its X-Request-ID; calls whose signature carries no context (Lookup,
// Put) record an empty ID.
type span struct {
	seam  string
	op    string
	id    string
	start time.Time
	dur   time.Duration
}

// recorder keeps spans in memory until the run ends. It records only
// while enabled, so one composition serves an untraced and a traced
// pass over the same inputs.
type recorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span // guarded by mu
}

func (r *recorder) enable(on bool) { r.on.Store(on) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and starts a fresh list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// traced decorates a backend with spans at one seam. It implements every
// optional backend capability. Where the wrapped backend lacks one, the
// method behaves exactly as its callers treat a missing capability:
// PlaceSourced reports SourceBackend, Probe passes, QueryContext falls
// back to Query, DownReplicas names none, and Put, Keys, KeyDigest and
// Events fail without ErrUnavailable, which callers skip or count the
// way they count an absent extension. So a traced composition routes,
// replicates, heals and reports health like the untraced one.
type traced struct {
	inner backend.Backend
	seam  string
	rec   *recorder
}

// wrap returns b traced at seam, or b itself when rec is nil (an
// untraced run composes the bare backends).
func wrap(b backend.Backend, seam string, rec *recorder) backend.Backend {
	if rec == nil {
		return b
	}
	return &traced{inner: b, seam: seam, rec: rec}
}

// now is the span start, or zero while recording is off.
func (t *traced) now() time.Time {
	if !t.rec.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

func (t *traced) record(ctx context.Context, op string, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	t.rec.add(span{seam: t.seam, op: op, id: obs.RequestIDFrom(ctx), start: t0, dur: time.Since(t0)})
}

// Lookup implements backend.Backend.
func (t *traced) Lookup(k store.CellKey) (store.Result, bool) {
	t0 := t.now()
	r, ok := t.inner.Lookup(k)
	t.record(context.Background(), "lookup", t0)
	return r, ok
}

// Place implements backend.Backend.
func (t *traced) Place(ctx context.Context, spec store.CellSpec) (store.Result, error) {
	r, _, err := t.PlaceSourced(ctx, spec)
	return r, err
}

// PlaceSourced implements backend.Sourced.
func (t *traced) PlaceSourced(ctx context.Context, spec store.CellSpec) (store.Result, backend.Source, error) {
	t0 := t.now()
	r, src, err := backend.PlaceSourced(ctx, t.inner, spec)
	t.record(ctx, "place", t0)
	return r, src, err
}

// Query implements backend.Backend.
func (t *traced) Query(f sweep.Filter) []store.Result { return t.inner.Query(f) }

// Stats implements backend.Backend.
func (t *traced) Stats() backend.Stats { return t.inner.Stats() }

// QueryContext implements backend.ContextQuerier.
func (t *traced) QueryContext(ctx context.Context, f sweep.Filter) ([]store.Result, error) {
	if cq, ok := t.inner.(backend.ContextQuerier); ok {
		return cq.QueryContext(ctx, f)
	}
	return t.inner.Query(f), nil
}

// Probe implements backend.Prober.
func (t *traced) Probe(ctx context.Context) error {
	if p, ok := t.inner.(backend.Prober); ok {
		return p.Probe(ctx)
	}
	return nil
}

// Put implements backend.Putter.
func (t *traced) Put(r store.Result) error {
	p, ok := t.inner.(backend.Putter)
	if !ok {
		return fmt.Errorf("traced: wrapped backend accepts no writes: %w", backend.ErrNotStored)
	}
	t0 := t.now()
	err := p.Put(r)
	t.record(context.Background(), "put", t0)
	return err
}

// Keys implements backend.KeyLister.
func (t *traced) Keys(ctx context.Context) ([]store.CellKey, error) {
	if kl, ok := t.inner.(backend.KeyLister); ok {
		return kl.Keys(ctx)
	}
	return nil, fmt.Errorf("traced: wrapped backend enumerates no keys")
}

// KeyDigest implements backend.KeyDigester.
func (t *traced) KeyDigest(ctx context.Context) (store.Digest, int, error) {
	if kd, ok := t.inner.(backend.KeyDigester); ok {
		return kd.KeyDigest(ctx)
	}
	return 0, 0, fmt.Errorf("traced: wrapped backend digests no keys")
}

// DownReplicas implements backend.DownReporter.
func (t *traced) DownReplicas() []string {
	if dr, ok := t.inner.(backend.DownReporter); ok {
		return dr.DownReplicas()
	}
	return nil
}

// Events implements backend.Eventer.
func (t *traced) Events(ctx context.Context, since int64, limit int) ([]obs.Event, error) {
	if ev, ok := t.inner.(backend.Eventer); ok {
		return ev.Events(ctx, since, limit)
	}
	return nil, fmt.Errorf("traced: wrapped backend keeps no journal")
}

// Journal forwards the wrapped backend's journal, which a serving front
// compares against its own to avoid double-reporting events.
func (t *traced) Journal() *obs.Journal {
	if jr, ok := t.inner.(interface{ Journal() *obs.Journal }); ok {
		return jr.Journal()
	}
	return nil
}
