package apps_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/balance"
	"repro/mpf"
)

// TestSimRunReportsTheFailure holds Sim.Run to report the error of a
// process that fails on its own, not the deadlock its blocked peers make
// of it; the deadlock is the error only when no process reported one.
func TestSimRunReportsTheFailure(t *testing.T) {
	errBad := errors.New("bad halo")
	waitForever := func(p apps.Proc) error {
		c, err := p.OpenReceive("never", mpf.FCFS)
		if err != nil {
			return err
		}
		_, err = c.Receive(make([]byte, 8))
		return err
	}
	err := apps.Simulated(balance.Balance21000()).Run(3, func(p apps.Proc) error {
		if p.PID() == 1 {
			return errBad
		}
		return waitForever(p)
	})
	if !errors.Is(err, errBad) {
		t.Errorf("one process failed, two blocked: Run = %v, want %v", err, errBad)
	}
	err = apps.Simulated(balance.Balance21000()).Run(2, waitForever)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("two processes blocked: Run = %v, want a deadlock", err)
	}
}
