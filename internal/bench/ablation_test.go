package bench

import (
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/gauss"
	"repro/internal/balance"
)

func TestAblationSchemesOrdering(t *testing.T) {
	fig := AblationSchemes(Config{})
	general := fig.Get("general LNVC")
	one2one := fig.Get("one-to-one")
	syncS := fig.Get("synchronous")
	if general == nil || one2one == nil || syncS == nil {
		t.Fatal("missing series")
	}
	// §5's predictions: both restricted schemes beat the general path
	// everywhere; synchronous wins by the most at large messages (the
	// saved copy dominates).
	for _, p := range general.Points {
		o, _ := one2one.Y(p.X)
		s, _ := syncS.Y(p.X)
		if o <= p.Y {
			t.Errorf("len=%d: one-to-one (%.0f) not above general (%.0f)", p.X, o, p.Y)
		}
		if s <= p.Y {
			t.Errorf("len=%d: synchronous (%.0f) not above general (%.0f)", p.X, s, p.Y)
		}
	}
	g2048, _ := general.Y(2048)
	s2048, _ := syncS.Y(2048)
	if s2048 < 2*g2048 {
		t.Fatalf("synchronous at 2048 B (%.0f) not ≥2× general (%.0f)", s2048, g2048)
	}
}

func TestAblationBlockSizeMonotone(t *testing.T) {
	fig, err := AblationBlockSize(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	small := fig.Get("10-byte blocks")
	big := fig.Get("256-byte blocks")
	if small == nil || big == nil {
		t.Fatal("missing series")
	}
	// Bigger blocks never hurt, and help clearly at large messages.
	for _, p := range small.Points {
		b, _ := big.Y(p.X)
		if b < p.Y {
			t.Errorf("len=%d: 256B blocks (%.0f) below 10B blocks (%.0f)", p.X, b, p.Y)
		}
	}
	s2048, _ := small.Y(2048)
	b2048, _ := big.Y(2048)
	if b2048 < 1.5*s2048 {
		t.Fatalf("block-size effect too weak at 2048 B: %.0f vs %.0f", b2048, s2048)
	}
}

func TestAblationLockCostExplainsFigure4(t *testing.T) {
	fig, err := AblationLockCost(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	free := fig.Get("lock cost x0")
	heavy := fig.Get("lock cost x4")
	if free == nil || heavy == nil {
		t.Fatal("missing series")
	}
	// With no lock cost the small-message curve must not decline with
	// receivers; with inflated lock cost it must decline sharply.
	f1, _ := free.Y(1)
	f8, _ := free.Y(8)
	if f8 < f1*0.98 {
		t.Fatalf("lock-free curve declines: %.0f -> %.0f", f1, f8)
	}
	h1, _ := heavy.Y(1)
	h8, _ := heavy.Y(8)
	if h8 >= h1*0.9 {
		t.Fatalf("heavy-lock curve does not decline: %.0f -> %.0f", h1, h8)
	}
}

func TestAblationParadigmSharedWins(t *testing.T) {
	fig, err := AblationParadigm(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	mpfG := fig.Get("gauss 48 MPF")
	shmG := fig.Get("gauss 48 shared")
	if mpfG == nil || shmG == nil {
		t.Fatal("missing gauss series")
	}
	// The cross-paradigm result (cf. LeBlanc 1986): shared memory is at
	// least as fast everywhere and clearly faster at high process
	// counts, where per-message overhead dominates.
	for _, p := range mpfG.Points {
		s, ok := shmG.Y(p.X)
		if !ok {
			continue
		}
		if s < p.Y*0.98 {
			t.Errorf("gauss at %d procs: shared (%.2f) below MPF (%.2f)", p.X, s, p.Y)
		}
	}
	m16, _ := mpfG.Y(16)
	s16, _ := shmG.Y(16)
	if s16 <= m16*1.2 {
		t.Fatalf("at 16 procs shared (%.2f) should clearly beat MPF (%.2f)", s16, m16)
	}
	// SOR shows the same ordering.
	mpfS := fig.Get("sor 33 MPF")
	shmS := fig.Get("sor 33 shared")
	ms, _ := mpfS.Y(16)
	ss, _ := shmS.Y(16)
	if ss <= ms {
		t.Fatalf("sor at 16 procs: shared (%.2f) not above MPF (%.2f)", ss, ms)
	}
}

// TestSimSharedValidation holds the paradigm ablation's shared-memory
// leg to refuse what it cannot solve.
func TestSimSharedValidation(t *testing.T) {
	m := balance.Balance21000()
	if _, err := gauss.RunShared(apps.Simulated(m), 2, nil, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	a, b := gauss.NewSystem(8, rand.New(rand.NewSource(8)))
	if _, err := gauss.RunShared(apps.Simulated(m), 0, a, b); err == nil {
		t.Fatal("workers=0 accepted")
	}
}

func TestRestrictedSchemeCostModel(t *testing.T) {
	m := balance.Balance21000()
	for _, n := range []int{16, 256, 2048} {
		g := m.GeneralTransferTime(n)
		o := m.One2OneTransferTime(n)
		s := m.SyncTransferTime(n)
		if o >= g {
			t.Errorf("n=%d: one-to-one (%g) not cheaper than general (%g)", n, o, g)
		}
		if s >= g {
			t.Errorf("n=%d: synchronous (%g) not cheaper than general (%g)", n, s, g)
		}
	}
	// Synchronous scales with ONE copy: per-byte slope must be half the
	// general path's block-handling-free slope.
	ds := m.SyncTransferTime(2000) - m.SyncTransferTime(1000)
	dg := m.GeneralTransferTime(2000) - m.GeneralTransferTime(1000)
	if ds >= dg/2*1.2 {
		t.Fatalf("sync slope %g not ≈ half of general copy slope %g", ds, dg)
	}
}
