package main

import (
	"strings"
	"testing"
)

// recordStream returns n consecutive messages of one circuit as a
// receiver would be handed them.
func recordStream(pat *pattern, circuit uint32, n, size int) [][]byte {
	msgs := make([][]byte, n)
	for seq := range msgs {
		b := make([]byte, size)
		putHeader(b, circuit, uint64(seq), 0)
		copy(b[headerLen:], pat.body(uint64(seq), size-headerLen))
		msgs[seq] = b
	}
	return msgs
}

func verifyAll(pat *pattern, circuit uint32, msgs [][]byte) tally {
	v := newVerifier(pat, circuit)
	for _, m := range msgs {
		v.check(0, m)
	}
	t := tally{attempted: int64(len(msgs))}
	t.merge(v)
	return t
}

func TestVerifierAcceptsWhatWasSent(t *testing.T) {
	pat := newPattern(1, 1<<10)
	if got := verifyAll(pat, 3, recordStream(pat, 3, 200, 1<<10)); got.failed != 0 || got.err != nil {
		t.Fatalf("clean stream: %d failed, %v", got.failed, got.err)
	}
}

// The verifier must be able to fail: each fault below, planted in an
// otherwise clean recorded stream, is reported and makes failed_ratio
// positive.
func TestVerifierReportsFaults(t *testing.T) {
	pat := newPattern(1, 1<<10)
	faults := []struct {
		name   string
		plant  func(msgs [][]byte) [][]byte
		report string
	}{
		{"payload byte flipped", func(m [][]byte) [][]byte {
			m[patternEvery][500] ^= 0x01 // a message whose whole payload is compared
			return m
		}, "differs from the pattern"},
		{"sequence number dropped", func(m [][]byte) [][]byte {
			return append(m[:5], m[6:]...)
		}, "sequence 6 delivered, 5 was due"},
		{"delivered twice", func(m [][]byte) [][]byte {
			return append(m[:8], m[7:]...)
		}, "sequence 7 delivered, 8 was due"},
		{"delivered short", func(m [][]byte) [][]byte {
			m[9] = m[9][:100]
			return m
		}, "header says 1024 bytes, delivered 100"},
		{"another circuit's message", func(m [][]byte) [][]byte {
			putHeader(m[10], 4, 10, 0)
			return m
		}, "names circuit 4"},
	}
	for _, f := range faults {
		got := verifyAll(pat, 3, f.plant(recordStream(pat, 3, 200, 1<<10)))
		if got.failed == 0 || got.failedRatio() <= 0 {
			t.Errorf("%s: not reported (failed %d, ratio %g)", f.name, got.failed, got.failedRatio())
			continue
		}
		if got.err == nil || !strings.Contains(got.err.Error(), f.report) {
			t.Errorf("%s: reported as %v, want mention of %q", f.name, got.err, f.report)
		}
	}
}

func TestLedgerCheck(t *testing.T) {
	clean := counters{copies: 200, freeBlocks: 128}
	if err := checkLedger(clean, 100, 2, 128, 0); err != nil {
		t.Fatalf("clean ledger: %v", err)
	}
	for name, c := range map[string]counters{
		"one copy too many": {copies: 201, freeBlocks: 128},
		"a block leaked":    {copies: 200, freeBlocks: 127},
		"a circuit left":    {copies: 200, freeBlocks: 128, circuits: 1},
	} {
		if checkLedger(c, 100, 2, 128, 0) == nil {
			t.Errorf("%s: not reported", name)
		}
	}
}
