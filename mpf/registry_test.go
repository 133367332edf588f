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
	shardStats := fac.RegistryStats()
	if len(shardStats) != 16 {
		t.Fatalf("RegistryStats() has %d shards, want the default 16", len(shardStats))
	}
	var total uint64
	for _, s := range shardStats {
		total += s.Acquisitions
	}
	if total == 0 {
		t.Error("no registry acquisitions recorded")
	}
	st := fac.Stats()
	if st.RegistryAcquisitions != total {
		t.Errorf("Stats().RegistryAcquisitions = %d, per-shard sum = %d", st.RegistryAcquisitions, total)
	}
}
