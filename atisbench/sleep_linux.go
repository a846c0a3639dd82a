package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits for scheduled send times on a timerfd read through the
// netpoller. The kernel's high-resolution timer makes the fd readable
// within microseconds of the deadline, where time.Sleep can oversleep by
// most of a millisecond (the netpoller's epoll timeout has millisecond
// resolution). The goroutine parks while it waits, so it holds no P and
// takes no core from the server — a blocking nanosleep(2) would pin a P
// in a syscall until sysmon retakes it.
type sleeper struct {
	fd  int
	f   *os.File
	buf [8]byte
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	// A non-blocking fd handed to os.NewFile is registered with the
	// netpoller, so Read parks the goroutine.
	return &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

func (s *sleeper) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec { it_interval, it_value }: one-shot, relative.
	its := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0, uintptr(unsafe.Pointer(&its[0])), 0, 0, 0)
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := s.f.Read(s.buf[:])
	return err
}

func (s *sleeper) close() { s.f.Close() }
