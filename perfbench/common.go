package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"lowlat/internal/backend"
	"lowlat/internal/obs"
	"lowlat/internal/routing"
	"lowlat/internal/serve"
	"lowlat/internal/store"
	"lowlat/internal/sweep"
)

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// workers is the number of generator goroutines, client connections
	// and sweep workers: one per CPU.
	workers int
	// dir is the scratch directory stores are created under.
	dir string
	// tiny shrinks every input so the package tests run in seconds.
	tiny bool
}

func newConfig(seed int64, seconds time.Duration, trace bool, dir string) config {
	return config{seed: seed, seconds: seconds, trace: trace, workers: runtime.GOMAXPROCS(0), dir: dir}
}

// pick returns full, or small for a tiny configuration.
func (c config) pick(full, small int) int {
	if c.tiny {
		return small
	}
	return full
}

// setups is how many times a run repeats its set-up; setup_s is their
// median.
func (c config) setups() int { return c.pick(3, 1) }

// headrooms are the two operating points swept for schemes with a
// headroom dial (b4, mplste, ldr); the other three run once, so each
// calibrated matrix feeds nine scheme points.
var headrooms = []float64{0, 0.1}

// specsFor expands nets x seeds x scheme points at one (load, locality)
// operating point (load 0 is the default load), in the order a sweep
// plans them.
func specsFor(nets []string, seeds []int64, load, locality float64) []store.CellSpec {
	var out []store.CellSpec
	for _, n := range nets {
		for _, s := range seeds {
			for _, name := range routing.SchemeNames() {
				for _, h := range headrooms {
					sch, _ := routing.ByName(name, h)
					if h > 0 && routing.Headroom(sch) == 0 {
						continue
					}
					out = append(out, store.CellSpec{Net: n, Seed: s, Scheme: name, Headroom: h, Load: load, Locality: locality}.Normalized())
				}
			}
		}
	}
	return out
}

// distinctSeeds draws n distinct matrix seeds.
func distinctSeeds(rng *rand.Rand, n int) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := 1 + rng.Int63n(1_000_000)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// requestSpec is the /v1/place request for a planned sweep cell. A
// sweep addresses a cell by its configured scheme name ("b4+hr",
// "latopt"); a request names the scheme as routing.ByName takes it.
func requestSpec(c sweep.Cell) store.CellSpec {
	s := c.Spec.Normalized()
	for _, name := range routing.SchemeNames() {
		if sch, err := routing.ByName(name, s.Headroom); err == nil && sch.Name() == s.Scheme {
			s.Scheme = name
			break
		}
	}
	return s
}

// seedStore sweeps a grid into st, returning each planned cell's key by
// request spec string.
func seedStore(ctx context.Context, st *store.Store, grid sweep.Grid, workers int) (map[string]store.CellKey, error) {
	var mu sync.Mutex
	keys := make(map[string]store.CellKey)
	_, err := sweep.Run(ctx, st, grid, sweep.Options{
		Workers: workers,
		OnPlace: func(c sweep.Cell) {
			mu.Lock()
			keys[requestSpec(c).String()] = c.Key
			mu.Unlock()
		},
	})
	if err != nil {
		return nil, fmt.Errorf("seed store: %w", err)
	}
	return keys, nil
}

// daemon is one in-process serving daemon on a loopback port.
type daemon struct {
	srv    *serve.Server
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(ctx context.Context, srv *serve.Server) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	sctx, cancel := context.WithCancel(ctx)
	d := &daemon{srv: srv, url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(sctx, ln) }()
	return d, nil
}

// stop shuts the daemon down and waits for it to exit.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

// clientFor returns a load-generating client of one daemon.
func clientFor(url string, conns int) *serve.Client {
	return &serve.Client{BaseURL: url, HTTPClient: newHTTPClient(conns)}
}

func closeClient(c *serve.Client) { c.HTTPClient.CloseIdleConnections() }

// withID tags a request with an X-Request-ID, the identifier every span
// of the request shares.
func withID(ctx context.Context, phase string, i int) context.Context {
	return obs.WithTrace(ctx, obs.NewTrace(fmt.Sprintf("%s-%d", phase, i)))
}

func placeRequest(s store.CellSpec) serve.PlaceRequest {
	loc := s.Locality
	return serve.PlaceRequest{Net: s.Net, Seed: s.Seed, Scheme: s.Scheme, Headroom: s.Headroom, Load: s.Load, Locality: &loc}
}

// sameBytes checks that got renders to want's canonical wire bytes.
func sameBytes(got store.Result, want []byte) error {
	b, err := store.MarshalResult(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, want) {
		return fmt.Errorf("answer %s differs from the stored cell %s", b, want)
	}
	return nil
}

// recompute places each spec through a fresh Local backend over an
// empty store and checks the answer is byte-identical to want.
func recompute(ctx context.Context, dir string, specs []store.CellSpec, want [][]byte) error {
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("open recompute store: %w", err)
	}
	defer func() { _ = st.Close(); _ = os.RemoveAll(dir) }()
	l := backend.NewLocal(st, backend.LocalOptions{Workers: 1})
	for i, s := range specs {
		r, src, err := l.PlaceSourced(ctx, s)
		if err != nil {
			return fmt.Errorf("recompute %s: %w", s, err)
		}
		if src != backend.SourceComputed {
			return fmt.Errorf("recompute %s: answered from %s, want a fresh computation", s, src)
		}
		if err := sameBytes(r, want[i]); err != nil {
			return fmt.Errorf("recompute %s: %w", s, err)
		}
	}
	return nil
}

// scratch returns a fresh directory under the run's scratch root.
func scratch(cfg config, name string) (string, error) {
	d := filepath.Join(cfg.dir, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, nil
}

// pickN picks up to n of xs, seeded.
func pickN[T any](rng *rand.Rand, xs []T, n int) []T {
	idx := rng.Perm(len(xs))
	out := make([]T, 0, n)
	for _, i := range idx[:min(n, len(idx))] {
		out = append(out, xs[i])
	}
	return out
}
