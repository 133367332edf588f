package bench

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/mpf"
)

// These tests validate both substrates against the paper's qualitative
// results: absolute values for the simulated runs (paper scale), shapes
// only for native ones (host dependent). Quick configs keep runtimes
// test-friendly.

// sim and native run one benchmark cell on each substrate.
var sim, native = Config{Mode: Simulated}, Config{Mode: Native}

func TestSimBaseMatchesPaperScale(t *testing.T) {
	thr, err := sim.base(2048, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3's asymptote: ≈25,000 bytes/s.
	if thr < 20000 || thr > 27000 {
		t.Fatalf("2048-byte base throughput = %.0f, want ≈25,000", thr)
	}
	small, err := sim.base(16, 30)
	if err != nil {
		t.Fatal(err)
	}
	if small >= thr {
		t.Fatalf("16-byte throughput (%.0f) not below 2048-byte (%.0f)", small, thr)
	}
}

func TestSimFCFSMatchesPaperScale(t *testing.T) {
	thr, err := sim.fanout(mpf.FCFS, 1024, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 4's 1024-byte plateau: ≈45-50 Kbyte/s.
	if thr < 35000 || thr > 55000 {
		t.Fatalf("fcfs 1024B×8 = %.0f bytes/s, want ≈45,000", thr)
	}
}

func TestSimFCFSSmallMessagesDecline(t *testing.T) {
	// Figure 4: 16-byte throughput decreases as receivers are added
	// (lock contention).
	t1, err := sim.fanout(mpf.FCFS, 16, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := sim.fanout(mpf.FCFS, 16, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	if t16 >= t1 {
		t.Fatalf("16-byte fcfs with 16 receivers (%.0f) not below 1 receiver (%.0f)", t16, t1)
	}
}

func TestSimBroadcastMatchesPaperScale(t *testing.T) {
	thr, err := sim.fanout(mpf.Broadcast, 1024, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: 687,245 bytes/s at 1024 B × 16 receivers.
	if thr < 550000 || thr > 800000 {
		t.Fatalf("broadcast 1024B×16 = %.0f bytes/s, want ≈687,245", thr)
	}
	// And it grows with receivers.
	thr4, err := sim.fanout(mpf.Broadcast, 1024, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= thr4 {
		t.Fatalf("16 receivers (%.0f) not above 4 (%.0f)", thr, thr4)
	}
}

func TestSimBroadcastBeatsFCFSAggregate(t *testing.T) {
	b, err := sim.fanout(mpf.Broadcast, 1024, 8, 48)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sim.fanout(mpf.FCFS, 1024, 8, 48)
	if err != nil {
		t.Fatal(err)
	}
	if b <= 2*f {
		t.Fatalf("broadcast (%.0f) should far exceed fcfs (%.0f) at 8 receivers", b, f)
	}
}

func TestSimRandomPagingKnee(t *testing.T) {
	// Figure 6: at 1024 bytes, throughput declines beyond ≈10 processes
	// because of paging; 64-byte messages never page within 20.
	t8, err := sim.random(1024, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	t10, err := sim.random(1024, 10, 12)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := sim.random(1024, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	if t10 <= t8 {
		t.Fatalf("1024B: 10 procs (%.0f) not above 8 (%.0f)", t10, t8)
	}
	if t16 >= t10 {
		t.Fatalf("1024B: 16 procs (%.0f) not below 10 (%.0f) — paging knee missing", t16, t10)
	}
	// 64-byte curve keeps rising.
	s8, err := sim.random(64, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	s16, err := sim.random(64, 16, 12)
	if err != nil {
		t.Fatal(err)
	}
	if s16 <= s8 {
		t.Fatalf("64B: 16 procs (%.0f) not above 8 (%.0f)", s16, s8)
	}
}

func TestSimRandomLargerMessagesFaster(t *testing.T) {
	small, err := sim.random(8, 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	big, err := sim.random(256, 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("256B (%.0f) not above 8B (%.0f)", big, small)
	}
}

func TestNativeBaseMonotoneInLength(t *testing.T) {
	small, err := native.base(16, 300)
	if err != nil {
		t.Fatal(err)
	}
	big, err := native.base(2048, 300)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("native base: 2048B (%.0f) not above 16B (%.0f)", big, small)
	}
}

func TestNativeFCFSRuns(t *testing.T) {
	thr, err := native.fanout(mpf.FCFS, 128, 4, 200)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestNativeBroadcastDeliversNFold(t *testing.T) {
	f1, err := native.fanout(mpf.Broadcast, 1024, 1, 200)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := native.fanout(mpf.Broadcast, 1024, 8, 200)
	if err != nil {
		t.Fatal(err)
	}
	if f1 <= 0 || f8 <= 0 {
		t.Fatalf("zero throughput: %v / %v", f1, f8)
	}
	// Delivered throughput grows with receivers only when receivers can
	// actually copy in parallel; on a single-CPU host the native run
	// degenerates to time slicing and only the simulated substrate can
	// demonstrate Figure 5's scaling.
	if runtime.GOMAXPROCS(0) < 4 {
		t.Logf("only %d CPUs; skipping scaling assertion (f1=%.0f, f8=%.0f)",
			runtime.GOMAXPROCS(0), f1, f8)
		return
	}
	if f8 <= 2*f1 {
		t.Fatalf("broadcast delivered: 8 recv (%.0f) not well above 1 recv (%.0f)", f8, f1)
	}
}

func TestNativeRandomRuns(t *testing.T) {
	thr, err := native.random(256, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 {
		t.Fatal("zero throughput")
	}
}

// TestValidationErrors holds each program to refuse arguments it cannot
// run before it reaches its runner, whichever backend that is.
func TestValidationErrors(t *testing.T) {
	r := refuse{t}
	if _, err := Base(r, -1, 1); err == nil {
		t.Error("Base negative length accepted")
	}
	if _, err := Base(r, 8, 0); err == nil {
		t.Error("Base zero rounds accepted")
	}
	if _, err := Fanout(r, mpf.FCFS, 0, 1, 1); err == nil {
		t.Error("Fanout zero length accepted")
	}
	if _, err := Fanout(r, mpf.FCFS, 8, 10, 5); err == nil {
		t.Error("FCFS fanout with more receivers than messages accepted")
	}
	if _, err := Random(r, 8, 1, 1); err == nil {
		t.Error("Random one process accepted")
	}
}

// refuse is a Runner that fails its test if a program runs on it.
type refuse struct{ t *testing.T }

func (r refuse) Run(n int, _ func(apps.Proc) error) error {
	r.t.Errorf("invalid arguments reached Run(%d)", n)
	return nil
}

func TestFig3SimulatedShape(t *testing.T) {
	fig, err := Fig3(Config{Mode: Simulated, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Get("throughput")
	if s == nil {
		t.Fatal("missing series")
	}
	if !s.Monotone() {
		t.Fatalf("Figure 3 not monotone in message length: %+v", s.Points)
	}
	if max := s.Max(); max < 20000 || max > 27000 {
		t.Fatalf("Figure 3 peak = %.0f, want ≈25,000", max)
	}
}

func TestFig4SimulatedShape(t *testing.T) {
	fig, err := Fig4(Config{Mode: Simulated, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	big := fig.Get("1024 byte")
	small := fig.Get("16 byte")
	if big == nil || small == nil {
		t.Fatal("missing series")
	}
	// 1024-byte curve sits far above the 16-byte curve everywhere.
	for _, p := range big.Points {
		sy, ok := small.Y(p.X)
		if !ok {
			continue
		}
		if p.Y <= sy {
			t.Fatalf("at %d receivers: 1024B (%.0f) not above 16B (%.0f)", p.X, p.Y, sy)
		}
	}
	// Small-message curve declines with receivers.
	y1, _ := small.Y(1)
	y8, _ := small.Y(8)
	if y8 >= y1 {
		t.Fatalf("16B fcfs: 8 receivers (%.0f) not below 1 (%.0f)", y8, y1)
	}
}

func TestFig5SimulatedShape(t *testing.T) {
	fig, err := Fig5(Config{Mode: Simulated, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	big := fig.Get("1024 byte")
	if big == nil {
		t.Fatal("missing series")
	}
	if !big.Monotone() {
		t.Fatalf("broadcast 1024B not monotone in receivers: %+v", big.Points)
	}
}

func TestFig6SimulatedShape(t *testing.T) {
	fig, err := Fig6(Config{Mode: Simulated, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	big := fig.Get("1024 byte")
	if big == nil {
		t.Fatal("missing series")
	}
	// Paging knee: the peak is not at the largest process count.
	if big.ArgMax() >= 20 {
		t.Fatalf("1024B random peaks at %d processes; paging knee missing", big.ArgMax())
	}
}

func TestFig7SimulatedShape(t *testing.T) {
	fig, err := Fig7(Config{Mode: Simulated, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	small := fig.Get("32x32 matrix")
	large := fig.Get("64x64 matrix")
	if small == nil || large == nil {
		t.Fatal("missing series")
	}
	y32, _ := small.Y(8)
	y64, _ := large.Y(8)
	if y64 <= y32 {
		t.Fatalf("speedup at 8 procs: 64×64 (%.2f) not above 32×32 (%.2f)", y64, y32)
	}
	if y1, _ := large.Y(1); y1 > 1.2 || y1 < 0.5 {
		t.Fatalf("single-worker speedup = %.2f, want ≈1", y1)
	}
}

func TestFig8SimulatedShape(t *testing.T) {
	fig, err := Fig8(Config{Mode: Simulated, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	small := fig.Get("9x9 problem")
	large := fig.Get("33x33 problem")
	if small == nil || large == nil {
		t.Fatal("missing series")
	}
	// Baselines pinned at 1 for N=2.
	if y, _ := small.Y(2); y != 1 {
		t.Fatalf("9×9 N=2 speedup = %v, want 1", y)
	}
	y9, _ := small.Y(4)
	y33, _ := large.Y(4)
	if y33 <= y9 {
		t.Fatalf("per-iter speedup at N=4: 33×33 (%.2f) not above 9×9 (%.2f)", y33, y9)
	}
}

func TestFigureRenderIncludesModeAndSeries(t *testing.T) {
	fig, err := Fig3(Config{Mode: Simulated, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := fig.Render()
	if !strings.Contains(out, "simulated") || !strings.Contains(out, "Figure 3") {
		t.Fatalf("render:\n%s", out)
	}
}
