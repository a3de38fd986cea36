//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// dueTimer wakes its goroutine at an absolute time through a timerfd
// read by the Go netpoller. Neither of the plain ways to sleep will do
// for a schedule of a few milliseconds: the runtime's own timers round
// to the millisecond while the process is otherwise idle (they ride on
// epoll_wait's timeout), which made requests a median 0.57 ms late on a
// 2 ms schedule, and a goroutine blocked in nanosleep(2) keeps its P
// until sysmon takes it back, which with GOMAXPROCS=2 and six sleeping
// workers starved the very daemon being measured (ack_p50_ms went from
// 0.7 to 5 ms). A timerfd is a kernel hrtimer that becomes readable when
// it fires, so the wait parks the goroutine like any socket read does.
type dueTimer struct {
	f  *os.File
	fd uintptr // kept apart: os.File.Fd would switch the descriptor to blocking mode
}

type itimerspec struct{ interval, value syscall.Timespec }

func newDueTimer() (*dueTimer, error) {
	const clockMonotonic, tfdNonblockCloexec = 1, 0x800 | 0x80000
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblockCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &dueTimer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

// sleepUntil returns once t has passed.
func (d *dueTimer) sleepUntil(t time.Time) error {
	var buf [8]byte
	for {
		left := time.Until(t)
		if left <= 0 {
			return nil
		}
		spec := itimerspec{value: syscall.NsecToTimespec(int64(left))} // one shot, relative
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, d.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return os.NewSyscallError("timerfd_settime", errno)
		}
		if _, err := d.f.Read(buf[:]); err != nil {
			return err
		}
	}
}

func (d *dueTimer) close() { d.f.Close() }
