package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The benchmark shares its machine's CPUs with other virtual machines.
// While the hypervisor runs one of them on a CPU this machine wanted, the
// kernel counts the time as stolen, and every timing of the benchmark
// stretches with it. On the two-CPU VM the benchmark was tuned on, most
// seconds lost under 3% of their CPU time this way, but runs that lost
// 17-28% swept cells at up to half speed and measured serve-hot's median
// latency up to 2.2x its usual value. So each measured phase runs as a
// series of slices, notes the steal in each, and reports from the slices
// with the least.

// quietSteal is the share of a slice's CPU time that may be stolen before
// the slice counts as disturbed.
const quietSteal = 0.05

// sliceLimit is how far a phase may grow to replace disturbed slices:
// by half as many slices again as it wants.
func sliceLimit(want int) int { return want + (want+1)/2 }

// userHZ is the unit of /proc/stat's CPU times: clock ticks of 1/100 s
// on every Linux architecture.
const userHZ = 100

// stolenTicks reads the CPU time stolen from this machine since boot,
// summed over its CPUs, in clock ticks, and the number of CPUs.
func stolenTicks() (ticks int64, cpus int, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("read steal: %w", err)
	}
	found := false
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0 || !strings.HasPrefix(f[0], "cpu"):
		case f[0] == "cpu":
			// user nice system idle iowait irq softirq steal ...
			if len(f) < 9 {
				return 0, 0, fmt.Errorf("read steal: short cpu line %q", sc.Text())
			}
			if ticks, err = strconv.ParseInt(f[8], 10, 64); err != nil {
				return 0, 0, fmt.Errorf("read steal: %w", err)
			}
			found = true
		default:
			cpus++
		}
	}
	if !found || cpus == 0 {
		return 0, 0, errors.New("read steal: no cpu lines in /proc/stat")
	}
	return ticks, cpus, nil
}

// measureQuiet runs the slices of one measured phase, slice(0),
// slice(1), ..., until want of them ran with at most quietSteal of their
// CPU time stolen, or sliceLimit(want) ran. It returns the indices of
// the want slices with the least steal, in run order, and how many of
// the slices run were disturbed.
func measureQuiet(want int, slice func(i int) error) (kept []int, disturbed int, err error) {
	var stolen []float64
	for i, quiet := 0, 0; i < sliceLimit(want) && quiet < want; i++ {
		t0, cpus, err := stolenTicks()
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		if err := slice(i); err != nil {
			return nil, 0, err
		}
		wall := time.Since(start)
		t1, _, err := stolenTicks()
		if err != nil {
			return nil, 0, err
		}
		share := float64(t1-t0) / userHZ / (wall.Seconds() * float64(cpus))
		stolen = append(stolen, share)
		if share <= quietSteal {
			quiet++
		} else {
			disturbed++
		}
	}
	return leastStolen(stolen, want), disturbed, nil
}

// leastStolen returns the indices of the want smallest shares (earlier
// first among equals), in index order.
func leastStolen(shares []float64, want int) []int {
	idx := make([]int, len(shares))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return shares[idx[a]] < shares[idx[b]] })
	idx = idx[:min(want, len(idx))]
	sort.Ints(idx)
	return idx
}

// slicesOf splits a phase of d into whole-second slices (one slice when
// d is shorter).
func slicesOf(d time.Duration) (n int, each time.Duration) {
	n = max(1, int(d/time.Second))
	return n, d / time.Duration(n)
}

// pick returns the elements of xs at the kept indices.
func pick[T any](xs []T, kept []int) []T {
	out := make([]T, 0, len(kept))
	for _, i := range kept {
		out = append(out, xs[i])
	}
	return out
}

// quietSetups runs set-up want times through measureQuiet and reports
// setup_s, the median duration of the kept set-ups.
func quietSetups(rep *report, want int, setup func(i int) error) error {
	var secs []float64
	kept, disturbed, err := measureQuiet(want, func(i int) error {
		t0 := time.Now()
		err := setup(i)
		secs = append(secs, time.Since(t0).Seconds())
		return err
	})
	if err != nil {
		return err
	}
	rep.add("setup_s", "s", median(pick(secs, kept)), len(kept))
	rep.note("set-up: %d of %d runs disturbed by steal", disturbed, len(secs))
	return nil
}

// quietOpenLoop runs an open loop of d at rate in slices through
// measureQuiet. Request indices run on across slices, so send sees one
// phase. It returns every sample, for checking, and the samples of the
// kept slices, for the latencies.
func quietOpenLoop(ctx context.Context, rep *report, rate float64, d time.Duration, workers int, send sendFunc) (all, kept []sample, err error) {
	n, each := slicesOf(d)
	per := max(1, int(rate*each.Seconds()))
	var parts [][]sample
	idx, disturbed, err := measureQuiet(n, func(i int) error {
		ss, err := openLoop(ctx, rate, per, workers, offset(send, i*per))
		parts = append(parts, ss)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range parts {
		all = append(all, p...)
	}
	for _, p := range pick(parts, idx) {
		kept = append(kept, p...)
	}
	rep.note("open loop: %d of %d slices disturbed by steal", disturbed, len(parts))
	return all, kept, nil
}

// quietClosedLoop runs a closed loop of d in slices through
// measureQuiet. It returns every sample and the throughput: the median
// over the kept slices of each slice's completions per second.
func quietClosedLoop(ctx context.Context, rep *report, d time.Duration, workers int, send sendFunc) (all []sample, rate float64, err error) {
	n, each := slicesOf(d)
	var rates []float64
	idx, disturbed, err := measureQuiet(n, func(int) error {
		t0 := time.Now()
		ss := closedLoop(ctx, each, 0, workers, offset(send, len(all)))
		rates = append(rates, float64(len(ss))/time.Since(t0).Seconds())
		all = append(all, ss...)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	rep.note("closed loop: %d of %d slices disturbed by steal", disturbed, len(rates))
	return all, median(pick(rates, idx)), nil
}

// offset shifts a phase's request indices by base.
func offset(send sendFunc, base int) sendFunc {
	return func(ctx context.Context, i int) (string, error) { return send(ctx, base+i) }
}
