package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"lowlat/internal/obs"
)

// metric is one reported number with the count of samples behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// report is what one benchmark run prints.
type report struct {
	attempted int
	failed    int
	problems  []string // failed output checks, printed to stderr
	metrics   []metric
	notes     []string // context lines printed ahead of the metric table
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

// fail records one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// account counts a phase's requests and failures.
func (r *report) account(ss []sample) {
	for _, s := range ss {
		r.attempted++
		if s.err != nil {
			r.fail("%v", s.err)
		}
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// write prints every measured metric as a table sorted by name, then
// the result object as the last line, holding exactly the metrics in
// want. A metric the workload did not measure, because it bypasses that
// layer, reads 0 there; the table shows which were measured.
func (r *report) write(w io.Writer, want []metricSpec) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	sorted := append([]metric(nil), r.metrics...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, m := range sorted {
		fmt.Fprintf(w, "%-34s %14.6g %-5s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	got := make(map[string]float64, len(sorted))
	for _, m := range sorted {
		if !math.IsNaN(m.value) && !math.IsInf(m.value, 0) {
			got[m.name] = m.value
		}
	}
	ms := make(map[string]value, len(want))
	for _, m := range want {
		ms[m.name] = value{Value: got[m.name], Unit: m.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, ms})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value of xs (mean of the two middle ones for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durations converts samples to milliseconds with f.
func durations(ss []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(f(s))
	}
	return out
}

// ofClass keeps the samples of one class.
func ofClass(ss []sample, class string) []sample {
	var out []sample
	for _, s := range ss {
		if s.class == class {
			out = append(out, s)
		}
	}
	return out
}

// e2eLatency reports a phase's end-to-end latency: latency_p50_ms, and
// its tail as e2e.latency_p99_ms (windowP99). The tail is reported with
// the per-layer metrics rather than gated: on a shared two-CPU machine
// its run-to-run spread is wider than any bound the benchmark may set.
func (r *report) e2eLatency(ss []sample) {
	lat := durations(ss, sample.latency)
	r.add("latency_p50_ms", "ms", quantile(lat, 0.5), len(lat))
	r.add("e2e.latency_p99_ms", "ms", windowP99(ss), len(lat))
}

// overhead reports trace.overhead_frac: the traced pass's median latency
// over the untraced pass's, minus one. Both passes run the same
// composition, wrapped in the tracing decorator with recording off and
// then on, so the figure is the cost of recording spans; the decorator's
// extra call and capability forwarding at each seam is in both passes and
// not counted.
func (r *report) overhead(plain, traced []sample) {
	p := quantile(durations(plain, sample.latency), 0.5)
	t := quantile(durations(traced, sample.latency), 0.5)
	r.add("trace.overhead_frac", "frac", ratio(t-p, p), len(traced))
}

// latencyMetrics adds <prefix>_p50_ms and, when asked, <prefix>_p99_ms
// (windowP99) over the samples' due-time latencies.
func (r *report) latencyMetrics(prefix string, ss []sample, p99 bool) {
	lat := durations(ss, sample.latency)
	r.add(prefix+"_p50_ms", "ms", quantile(lat, 0.5), len(lat))
	if p99 {
		r.add(prefix+"_p99_ms", "ms", windowP99(ss), len(lat))
	}
}

// windowSamples is the least number of requests behind each window's
// p99, so that at least ten lie beyond it.
const windowSamples = 1000

// windows splits samples, in schedule order, into consecutive windows
// of at least windowSamples requests (one window when there are fewer).
func windows(ss []sample) [][]sample {
	k := max(1, len(ss)/windowSamples)
	out := make([][]sample, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, ss[i*len(ss)/k:(i+1)*len(ss)/k])
	}
	return out
}

// windowP99 is the median over consecutive windows of each window's p99
// latency. A freeze of the shared machine inflates the p99 of the few
// windows it falls in, not the reported figure.
func windowP99(ss []sample) float64 {
	var vs []float64
	for _, w := range windows(ss) {
		vs = append(vs, quantile(durations(w, sample.latency), 0.99))
	}
	return median(vs)
}

// resetPeakRSS starts a new peak resident-set measurement: it collects
// garbage and returns the freed pages to the OS, so every measured phase
// starts from the same live heap rather than from whatever the earlier
// set-ups left resident, then resets the kernel's high-water mark
// (VmHWM), so set-up peaks stay out of peak_rss_mb.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the peak resident set size since resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("read peak RSS: no VmHWM in /proc/self/status")
}

// delta is the distribution of the observations recorded between two
// cumulative snapshots of one histogram: bucket counts subtract exactly,
// so the quantiles cover only the measured phase.
func delta(after, before obs.Snapshot) obs.Snapshot {
	prev := make(map[int64]int64, len(before.Buckets))
	for _, b := range before.Buckets {
		prev[b[0]] = b[1]
	}
	out := obs.Snapshot{Count: after.Count - before.Count, SumNS: after.SumNS - before.SumNS, MaxNS: after.MaxNS}
	for _, b := range after.Buckets {
		if c := b[1] - prev[b[0]]; c > 0 {
			out.Buckets = append(out.Buckets, [2]int64{b[0], c})
		}
	}
	return out
}

// stageDelta is delta over one named stage of two stage maps.
func stageDelta(after, before map[string]obs.Snapshot, stage string) obs.Snapshot {
	return delta(after[stage], before[stage])
}

// snapQ is a snapshot quantile in unit u.
func snapQ(s obs.Snapshot, q float64, u time.Duration) float64 {
	return float64(s.Quantile(q)) / float64(u)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
