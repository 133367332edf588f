//go:build unix

package main

import (
	"syscall"
	"time"
)

// cpuTime is the user+system time of this process and the children it
// has reaped.
func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return total
}
