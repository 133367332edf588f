//go:build !linux

package main

import "errors"

// idleSpin needs Linux's SCHED_IDLE class; elsewhere CPUs are left to
// halt.
func idleSpin() error { return errors.ErrUnsupported }
