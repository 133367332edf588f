package mpf

import (
	"fmt"
	"testing"
)

func TestRegistryStatsExposed(t *testing.T) {
	fac, err := New(WithMaxProcesses(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	p, _ := fac.Process(0)
	for i := 0; i < 8; i++ {
		s, err := p.OpenSend(fmt.Sprintf("reg-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	rs := fac.RegistryStats()
	if len(rs) != 1 {
		t.Fatalf("RegistryStats() has %d elements, want the one registry lock", len(rs))
	}
	// Eight opens and eight closes, one acquisition each.
	if rs[0].Acquisitions < 16 {
		t.Errorf("registry recorded %d acquisitions for 16 opens and closes", rs[0].Acquisitions)
	}
	if st := fac.Stats(); st.RegistryAcquisitions != rs[0].Acquisitions {
		t.Errorf("Stats().RegistryAcquisitions = %d, RegistryStats() = %d", st.RegistryAcquisitions, rs[0].Acquisitions)
	}
}
