package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits out short intervals precisely. time.Sleep cannot: an idle
// Go scheduler waits for timers in epoll with a millisecond timeout, so a
// sub-millisecond sleep ends up to a millisecond late, which would put
// half a millisecond of generator lag into every open-loop latency. A
// Linux timerfd wakes the netpoller when it fires instead; this is what
// ties the benchmark to Linux. There is no fallback: a pacer that cannot
// use its timerfd fails the run rather than pace coarsely.
type pacer struct {
	fd int
	f  *os.File
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("pacer: timerfd_create: %w", errno)
	}
	// A non-blocking descriptor joins the netpoller, so Read parks the
	// goroutine rather than an OS thread.
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// wait returns after d.
func (p *pacer) wait(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: a zero interval (one-shot), then the value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		return fmt.Errorf("pacer: timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		return fmt.Errorf("pacer: read timerfd: %w", err)
	}
	return nil
}

func (p *pacer) close() { _ = p.f.Close() }
