//go:build !linux

package proc

// pin is a no-op where the platform has no sched_setaffinity: children
// run wherever the scheduler puts them.
func pin(pid, i int) error { return nil }
