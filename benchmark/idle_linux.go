//go:build linux

package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

const schedIdle = 5 // SCHED_IDLE: runs only where nothing else is runnable

// cpuSet is the kernel's CPU mask, wide enough for 1024 CPUs.
type cpuSet [16]uint64

// idleSpin starts one thread per CPU this process may run on, pinned to
// it in the SCHED_IDLE class, that spins for ever: no CPU ever halts,
// and any other thread that wakes preempts the spinner at once. It
// returns once every spinner runs.
func idleSpin() error {
	var allowed cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return e
	}
	started := make(chan error)
	n := 0
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		n++
		go func() {
			runtime.LockOSThread()
			var one cpuSet
			one[cpu/64] = 1 << (cpu % 64)
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if e == 0 {
				var priority int32 // struct sched_param; 0 is the only value the class takes
				_, _, e = syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&priority)))
			}
			if e != 0 {
				started <- e
				return
			}
			started <- nil
			for {
			}
		}()
	}
	var err error
	for ; n > 0; n-- {
		if e := <-started; e != nil {
			err = e
		}
	}
	return err
}
