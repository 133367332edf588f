//go:build !unix

package main

import "time"

// cpuTime is unavailable here; cpu_s_per_mmsg reads 0.
func cpuTime() time.Duration { return 0 }
