// Command perfbench is lowlat's benchmark. It drives the real serving
// stack in process over loopback (serve.NewBackendServer over
// backend.Local, cluster.New over serve.Remote replicas,
// backend.Predictive, sweep.Run) on one of three workloads, checks every
// answer, and prints each metric by name with its unit and sample
// count, then one JSON result object as the last line.
//
//	perfbench --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// reports the per-layer metrics of a traced run. See README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user sees, reported by --trace 0 on every
// workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that bypasses a
// layer reports 0 for it; README.md maps each metric to the end-to-end
// metric and workload it should move.
var perLayer = append([]metricSpec{
	{"serve.http_place_p50_us", "us"},
	{"serve.http_place_p99_us", "us"},
	{"serve.client_gap_p50_us", "us"},
	{"serve.cache_hit_frac", "frac"},
	{"serve.http_cell_p50_us", "us"},
	{"serve.rejected", "count"},
	{"serve.coalesced", "count"},
	{"backend.place_store_p50_us", "us"},
	{"backend.store_read_p50_us", "us"},
	{"backend.memo_hit_frac", "frac"},
	{"backend.matrix_ms", "ms"},
	{"backend.solve_ms", "ms"},
	{"predict.predict_p50_us", "us"},
	{"predict.hit_frac", "frac"},
	{"cluster.replica_place_p50_us", "us"},
	{"cluster.replicate_p50_us", "us"},
	{"cluster.replica_lookup_p50_us", "us"},
	{"cluster.lookup_fanout", "ratio"},
	{"cluster.replicated", "count"},
	{"cluster.read_repairs", "count"},
	{"cluster.rerouted", "count"},
	{"sweep.plan_s", "s"},
	{"sweep.place_p50_ms", "ms"},
	{"sweep.post_solve_ms", "ms"},
	{"engine.busy_frac", "frac"},
	{"answer.cache_p50_ms", "ms"},
	{"answer.store_p50_ms", "ms"},
	{"answer.lookup_p50_ms", "ms"},
	{"answer.lookup_p99_ms", "ms"},
	{"answer.predicted_p50_ms", "ms"},
	{"answer.computed_p50_ms", "ms"},
	{"answer.computed_p99_ms", "ms"},
	{"e2e.latency_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.coverage", "frac"},
}, ladderMetrics...)

// workloads maps each --workload name to its run.
var workloads = map[string]func(context.Context, config) (*report, error){
	"serve-hot":  runServeHot,
	"sweep-cold": runSweepCold,
	"cluster-r2": runClusterR2,
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run executes one benchmark invocation: 0 when every operation and
// check passed, 1 on any failure, 2 on usage errors.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "serve-hot, sweep-cold or cluster-r2")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	dir := fs.String("dir", filepath.Join(".bench_build", "work"), "scratch directory for stores")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload serve-hot|sweep-cold|cluster-r2, --seconds > 0, --trace 0|1\n")
		return 2
	}
	work := filepath.Join(*dir, fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	defer os.RemoveAll(work)
	cfg := newConfig(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, work)
	rep, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if err := rep.write(stdout, want); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}
