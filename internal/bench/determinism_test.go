package bench

import (
	"testing"

	"repro/internal/stats"
	"repro/mpf"
)

// The simulated substrate is the reproduction's evidence; it must be
// bit-for-bit repeatable so the figures `mpfbench -mode simulated`
// prints can be re-derived by anyone.

func TestSimulatedFiguresDeterministic(t *testing.T) {
	for _, f := range []struct {
		name string
		gen  func(Config) (*stats.Figure, error)
	}{
		{"Fig4", Fig4}, {"Fig7", Fig7}, {"Fig8", Fig8},
	} {
		render := func() string {
			fig, err := f.gen(Config{Mode: Simulated, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			return fig.Render()
		}
		if a, b := render(), render(); a != b {
			t.Fatalf("%s not reproducible:\n%s\n---\n%s", f.name, a, b)
		}
	}
}

func TestSimRandomDeterministic(t *testing.T) {
	a, err := sim.random(256, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.random(256, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("SimRandom not reproducible: %v vs %v", a, b)
	}
}

// Pin the headline numbers `mpfbench -fig 3` and `mpfbench -fig 5 -mode
// simulated` print, with slack for intentional recalibration (fail = the
// paper-scale calibration moved).
func TestHeadlineNumbersMatchMpfbench(t *testing.T) {
	base, err := sim.base(2048, 200)
	if err != nil {
		t.Fatal(err)
	}
	if base < 23000 || base > 25500 {
		t.Errorf("Fig3 asymptote drifted to %.0f; mpfbench -fig 3 -mode simulated prints 24,233.1 at 2048 bytes", base)
	}
	bcast, err := sim.fanout(mpf.Broadcast, 1024, 16, 48*16)
	if err != nil {
		t.Fatal(err)
	}
	if bcast < 700000 || bcast > 800000 {
		t.Errorf("Fig5 peak drifted to %.0f; mpfbench -fig 5 -mode simulated prints 748,746 at 16 receivers", bcast)
	}
}
