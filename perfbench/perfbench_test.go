package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lowlat/internal/obs"
	"lowlat/internal/sweep"
)

func tinyConfig(t *testing.T, trace bool) config {
	cfg := newConfig(7, 400*time.Millisecond, trace, t.TempDir())
	cfg.tiny = true
	return cfg
}

// TestOpenLoopTimesFromDueTime stalls the server once for 200 ms. Every
// request scheduled during the stall waits behind it, so the stall must
// show in the latency of many requests, not only the one that hit it.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var gate sync.RWMutex
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 50 {
			gate.Lock()
			time.Sleep(200 * time.Millisecond)
			gate.Unlock()
			return
		}
		gate.RLock()
		gate.RUnlock()
	}))
	defer srv.Close()
	client := newHTTPClient(2)
	defer client.CloseIdleConnections()

	ss, err := openLoop(context.Background(), 1000, 600, 2, func(ctx context.Context, i int) (string, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		if err != nil {
			return "", err
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		return "", resp.Body.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 600 {
		t.Fatalf("sent %d requests, want 600", len(ss))
	}
	slow, slowSent := 0, 0
	for _, s := range ss {
		if s.err != nil {
			t.Fatalf("request failed: %v", s.err)
		}
		if s.latency() >= 50*time.Millisecond {
			slow++
		}
		if s.done-s.sent >= 50*time.Millisecond {
			slowSent++
		}
	}
	// About 200 requests fall due during the stall; timed from their
	// send instead, only the requests in flight at the stall look slow.
	if slow < 100 {
		t.Errorf("%d requests at >= 50ms from their due time, want >= 100 behind a 200ms stall", slow)
	}
	if slowSent > 10 {
		t.Errorf("%d requests slow from their send time, want only the few in flight during the stall", slowSent)
	}
	if p99 := quantile(durations(ss, sample.latency), 0.99); p99 < 100 {
		t.Errorf("p99 %.1fms, want the stall in the tail", p99)
	}
	if lag := quantile(durations(ss, sample.lag), 0.99); lag < 50 {
		t.Errorf("generator lag p99 %.1fms, want the stall to delay the schedule", lag)
	}
}

// TestTracedClusterMatchesUntraced drives the same sequential cluster-r2
// traffic through a traced and an untraced composition: the tracing
// decorators must forward every capability, so both runs store the same
// bytes on every replica and count the same replica work.
func TestTracedClusterMatchesUntraced(t *testing.T) {
	type replicaCounts struct {
		cells                                                                    int
		places, lookups, hits, misses, storeHits, memoHits, computed, replicated int64
	}
	type outcome struct {
		exports  []string
		counters []replicaCounts
		cluster  [3]int64
	}
	runOnce := func(trace bool) outcome {
		cfg := tinyConfig(t, trace)
		var rec *recorder
		if trace {
			rec = &recorder{}
			rec.enable(true)
		}
		c, err := setupCluster(context.Background(), cfg, rec, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.close()
		ss := closedLoop(context.Background(), time.Minute, 60, 1, c.send("test", 1))
		for _, s := range ss {
			if s.err != nil {
				t.Fatalf("trace=%v: %v", trace, s.err)
			}
		}
		if trace && len(rec.take()) == 0 {
			t.Fatal("traced run recorded no spans")
		}
		var out outcome
		for i, st := range c.stores {
			var b bytes.Buffer
			if err := sweep.WriteJSON(&b, sweep.Query(st, sweep.Filter{})); err != nil {
				t.Fatal(err)
			}
			out.exports = append(out.exports, b.String())
			s := c.replicas[i].srv.Stats()
			out.counters = append(out.counters, replicaCounts{
				s.StoreCells, s.PlaceRequests, s.CellLookups, s.CacheHits, s.CacheMisses,
				s.StoreHits, s.MemoHits, s.Computed, s.Replications,
			})
		}
		cs := c.cb.Stats()
		out.cluster = [3]int64{cs.Replicated, cs.ReadRepairs, cs.Rerouted}
		return out
	}
	plain, traced := runOnce(false), runOnce(true)
	for i := range plain.exports {
		if plain.exports[i] != traced.exports[i] {
			t.Errorf("replica %d export differs between traced and untraced runs", i)
		}
		if plain.counters[i] != traced.counters[i] {
			t.Errorf("replica %d counters differ:\nuntraced %+v\ntraced   %+v", i, plain.counters[i], traced.counters[i])
		}
	}
	if plain.cluster != traced.cluster {
		t.Errorf("cluster counters (replicated, read repairs, rerouted) differ: %v vs %v", plain.cluster, traced.cluster)
	}
	if plain.cluster[0] == 0 {
		t.Error("no cell was replicated; the traffic wrote nothing")
	}
}

// TestChecksCountFailures corrupts the expected bytes of every seeded
// cell: each answer must then fail its check.
func TestChecksCountFailures(t *testing.T) {
	cfg := tinyConfig(t, false)
	h, err := setupServeHot(context.Background(), cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	for k := range h.want {
		h.want[k] = []byte("{}")
	}
	ss := closedLoop(context.Background(), time.Minute, 20, 2, h.send("test"))
	rep := &report{}
	rep.account(ss)
	if rep.failed != len(ss) || len(ss) != 20 {
		t.Fatalf("%d of %d answers failed their check, want all 20", rep.failed, len(ss))
	}
}

// TestWorkloadsTiny runs every workload in both modes at a tiny size and
// checks the result line carries exactly the mode's metrics.
func TestWorkloadsTiny(t *testing.T) {
	for name, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, trace)
			rep, err := w(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if rep.failed != 0 {
				t.Fatalf("%s trace=%v: %d failures: %v", name, trace, rep.failed, rep.problems)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			var out bytes.Buffer
			if err := rep.write(&out, want); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", name, err)
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result %+v", name, trace, res)
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// TestRunUsage rejects unknown workloads and bad flags with exit code 2.
func TestRunUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-hot", "--trace", "2"},
		{"--workload", "serve-hot", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(context.Background(), args, &out, &errb); code != 2 {
			t.Errorf("run %v = %d, want 2", args, code)
		}
	}
}

// TestDeltaSubtractsBuckets pins the phase-window arithmetic the
// daemon-side quantiles rest on.
func TestDeltaSubtractsBuckets(t *testing.T) {
	before := obs.Snapshot{Count: 6, Buckets: [][2]int64{{10, 5}, {20, 1}}}
	after := obs.Snapshot{Count: 12, Buckets: [][2]int64{{10, 7}, {20, 1}, {30, 4}}}
	d := delta(after, before)
	if d.Count != 6 || len(d.Buckets) != 2 || d.Buckets[0] != [2]int64{10, 2} || d.Buckets[1] != [2]int64{30, 4} {
		t.Errorf("delta = %+v", d)
	}
}

// TestLeastStolen keeps the slices with the least steal, in run order,
// the earlier of two equal ones first.
func TestLeastStolen(t *testing.T) {
	got := leastStolen([]float64{0.2, 0, 0.01, 0.3, 0, 0.01}, 4)
	want := []int{1, 2, 4, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("leastStolen = %v, want %v", got, want)
	}
	if got := leastStolen([]float64{0.5, 0.4}, 3); fmt.Sprint(got) != "[0 1]" {
		t.Errorf("leastStolen with fewer slices than wanted = %v, want [0 1]", got)
	}
}

// TestMeasureQuietStopsAtLimit runs at least the wanted slices and never
// more than the limit, whatever the host's steal.
func TestMeasureQuietStopsAtLimit(t *testing.T) {
	ran := 0
	kept, disturbed, err := measureQuiet(4, func(int) error { ran++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if ran < 4 || ran > sliceLimit(4) || len(kept) != 4 || (ran < sliceLimit(4) && disturbed != ran-4) {
		t.Errorf("ran %d slices, kept %v, %d disturbed; want 4 to %d slices, 4 kept", ran, kept, disturbed, sliceLimit(4))
	}
}
