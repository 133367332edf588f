package proc

import (
	"runtime"
	"syscall"
	"unsafe"
)

// pin restricts process (or thread) pid, 0 for the calling thread, to
// CPU i mod NumCPU. On the repository benchmark's xproc_1k (2 vCPU) a
// pinned child moved 1.21x the messages per second of a floating one,
// in 10 of 10 pairs (DESIGN.md §15). Callers treat an error as "run
// unpinned": a cpuset that excludes the CPU, or a sandbox that forbids
// the call, is not a reason to fail a spawn.
func pin(pid, i int) error {
	cpu := i % runtime.NumCPU()
	var mask [16]uint64 // a cpu_set_t of 1024 CPUs
	mask[cpu/64%len(mask)] = 1 << (cpu % 64)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY,
		uintptr(pid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return errno
	}
	return nil
}
