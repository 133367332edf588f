package mpf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

func TestTypedSendBatch(t *testing.T) {
	fac, err := New(WithMaxProcesses(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	sp, _ := fac.Process(0)
	rp, _ := fac.Process(1)
	s, err := sp.OpenSend("typed")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rp.OpenReceive("typed", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	type point struct{ X, Y int }
	ts := NewTypedSender[point](s)
	tr := NewTypedReceiver[point](r, 256)
	vals := []point{{1, 2}, {3, 4}, {5, 6}}
	if err := ts.SendBatch(vals); err != nil {
		t.Fatal(err)
	}
	if err := ts.SendBatch(nil); err != nil {
		t.Errorf("empty typed batch: %v", err)
	}
	for i, want := range vals {
		got, err := tr.ReceiveDeadline(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("value %d: %+v, want %+v", i, got, want)
		}
	}
}

func TestWriterLargeWriteStreamsThroughSmallRegion(t *testing.T) {
	// A single Write far larger than the whole shared region must
	// stream — batching may group chunks but must never demand more
	// blocks at once than the region can supply, or the write would
	// fail (or stall) where the old chunk-by-chunk loop succeeded.
	fac, err := New(WithMaxProcesses(2), WithMaxLNVCs(4), WithBlocksPerProcess(16))
	if err != nil {
		t.Fatal(err)
	}
	defer fac.Shutdown()
	region := fac.Core().Arena().NumBlocks() * fac.Core().Arena().PayloadSize()
	payload := make([]byte, 8*region) // 8x the region: cannot fit at once
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	sp, _ := fac.Process(0)
	rp, _ := fac.Process(1)
	s, err := sp.OpenSend("bigstream")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rp.OpenReceive("bigstream", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, len(payload))
	done := make(chan error, 1)
	go func() {
		reader := NewReader(r, 256)
		buf := make([]byte, 1024)
		for {
			n, err := reader.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				done <- err
				return
			}
		}
	}()
	w := NewWriter(s, 256)
	n, err := w.Write(payload)
	if err != nil {
		t.Fatalf("large write failed: %v (wrote %d of %d)", err, n, len(payload))
	}
	if n != len(payload) {
		t.Fatalf("wrote %d of %d", n, len(payload))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream corrupted: %d bytes read, %d written", len(got), len(payload))
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
