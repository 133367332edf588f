package mpf

import (
	"fmt"
	"testing"
	"time"
)

func TestConnBatchRoundTrip(t *testing.T) {
	fac, err := New(WithMaxProcesses(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	sp, _ := fac.Process(0)
	rp, _ := fac.Process(1)
	s, err := sp.OpenSend("conv")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rp.OpenReceive("conv", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	in := make([][]byte, 6)
	for i := range in {
		in[i] = []byte(fmt.Sprintf("payload %d", i))
	}
	if err := s.SendBatch(in); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, 6)
	for i := range out {
		out[i] = make([]byte, 32)
	}
	ns, err := r.ReceiveBatchDeadline(out, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 6 {
		t.Fatalf("consumed %d messages, want 6", len(ns))
	}
	for i, n := range ns {
		if got, want := string(out[i][:n]), string(in[i]); got != want {
			t.Errorf("message %d: %q, want %q", i, got, want)
		}
	}
	st := fac.Stats()
	if st.BatchSends != 1 || st.BatchReceives != 1 {
		t.Errorf("BatchSends=%d BatchReceives=%d, want 1 and 1", st.BatchSends, st.BatchReceives)
	}
}

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
