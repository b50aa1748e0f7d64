//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits for scheduled send times. Go's timers wake an idle
// runtime through epoll_wait's millisecond timeout, so a send due in
// 4.2 ms leaves up to a millisecond late; a timerfd read through the
// netpoller wakes on the expiry itself, without spinning a core.
type pacer struct {
	f  *os.File
	fd uintptr // kept apart from f: f.Fd() would make the file blocking
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil returns at t, or at once when t has passed.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	var spec struct{ interval, value syscall.Timespec }
	spec.value = syscall.NsecToTimespec(int64(d))
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
