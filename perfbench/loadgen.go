package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one request the generator sent. Times are offsets from the
// start of its phase. An open loop fills due with the time the schedule
// wanted the request sent; a closed loop sends as soon as a worker is
// free, so there due equals sent.
type sample struct {
	class string
	due   time.Duration
	sent  time.Duration
	done  time.Duration
	err   error
}

// latency is the time from when the request was due to its answer. In an
// open loop this counts the wait a stall imposes on every request
// scheduled behind it.
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator sent the request.
func (s sample) lag() time.Duration { return s.sent - s.due }

// sendFunc sends request i and returns its class (the answer source or
// request kind) for per-class reporting.
type sendFunc func(ctx context.Context, i int) (string, error)

// openLoop sends n requests on a fixed schedule, request i due at
// i/rate seconds after the start. The calling goroutine paces the
// schedule and hands each request, when due, to workers goroutines that
// send them in order. A request due while every worker is busy waits;
// that wait is part of its latency, because latency is timed from the
// due time. A pacer failure ends the loop with an error.
func openLoop(ctx context.Context, rate float64, n, workers int, send sendFunc) ([]sample, error) {
	p, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer p.close()
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]sample, n)
	start := time.Now()
	// Sized to the number of sends: pacing never blocks on busy workers.
	due := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				s := sample{due: time.Duration(i) * interval, sent: time.Since(start)}
				s.class, s.err = send(ctx, i)
				s.done = time.Since(start)
				out[i] = s
			}
		}()
	}
	sent := 0
	for ; sent < n && ctx.Err() == nil; sent++ {
		if err = p.wait(time.Until(start.Add(time.Duration(sent) * interval))); err != nil {
			break
		}
		due <- sent
	}
	close(due)
	wg.Wait()
	return out[:sent], err
}

// closedLoop keeps workers requests outstanding for d, or until n
// requests were sent when n > 0: each worker sends its next request as
// soon as the previous one is answered.
func closedLoop(ctx context.Context, d time.Duration, n, workers int, send sendFunc) []sample {
	var next atomic.Int64
	start := time.Now()
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if n > 0 && i >= n {
					return
				}
				s := sample{sent: time.Since(start)}
				s.due = s.sent
				s.class, s.err = send(ctx, i)
				s.done = time.Since(start)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// newHTTPClient returns a client that holds at most conns connections to
// any one daemon, so the load never opens more connections than it has
// generator goroutines.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
	}}
}
