package main

import (
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waker sleeps with microsecond precision. time.Sleep cannot: the Go
// runtime rounds any timer shorter than a millisecond up to a 1 ms
// epoll timeout whenever the process is otherwise idle, which at tens
// of thousands of scheduled requests per second would show up as
// generator lag in every latency percentile. A Linux timerfd instead
// wakes the netpoller the moment it expires (timerfds get no timer
// slack), and the sleeping goroutine holds no OS thread.
type waker struct {
	f   *os.File
	buf [8]byte
}

func newWaker() (*waker, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.File use the netpoller.
	return &waker{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine for d (d > 0).
func (w *waker) sleep(d time.Duration) error {
	// struct itimerspec: it_interval {sec, nsec}, it_value {sec, nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	sc, err := w.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := sc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err = io.ReadFull(w.f, w.buf[:])
	return err
}

func (w *waker) close() { _ = w.f.Close() } // nothing was written
