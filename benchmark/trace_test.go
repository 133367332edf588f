package main

import (
	"encoding/json"
	"os"
	"testing"
)

// A span's self time is its duration minus the children it covers, per
// delivery covered.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(1)
	b := tr.buf(0)
	b.spans = append(b.spans,
		span{name: spRoundtrip, n: 2, parent: noSpan, start: 0, end: 1000},
		span{name: spSend, n: 1, parent: 0, start: 100, end: 300},
		span{name: spReceive, n: 1, parent: 0, start: 300, end: 900},
		span{name: spRoundtrip, n: 2, parent: noSpan, start: 1000, end: 1400},
		span{name: spSend, n: 1, parent: 3, start: 1000, end: 1100},
	)
	self := tr.selfTimes()
	if got, want := self[spRoundtrip], float64((1000-200-600)+(400-100))/4; got != want {
		t.Errorf("roundtrip self time %g ns per delivery, want %g", got, want)
	}
	if got, want := self[spSend], float64(200+100)/2; got != want {
		t.Errorf("send self time %g, want %g", got, want)
	}
	if self[spVerify] != 0 {
		t.Errorf("verify has no spans but self time %g", self[spVerify])
	}

	path, err := tr.write(t.TempDir(), "w")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string
		Spans    []struct {
			Name, Layer        string
			Start, End, Parent int64
		}
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(file.Spans) != 5 || file.Spans[4].Parent != 3 || file.Spans[0].Parent != noSpan || file.Spans[1].Layer != "mpf" {
		t.Errorf("trace file spans: %+v", file.Spans)
	}
}

func TestSamplingStaysWithinTheBuffer(t *testing.T) {
	tr := newTracer(40 * spansPerBuf)
	if tr.every < 40 {
		t.Errorf("sampling one in %d: want at most one in 40", tr.every)
	}
	taken := 0
	for i := 0; i < 100*tr.every; i++ {
		if tr.buf(0).sampled(i) {
			taken++
		}
	}
	if taken < 80 || taken > 120 {
		t.Errorf("sampled %d of %d messages, want about 100", taken, 100*tr.every)
	}
	var nilBuf *spanBuf
	if nilBuf.sampled(0) || nilBuf.open(false, spSend, noSpan, 0, 1) != noSpan {
		t.Error("a nil buffer must record nothing")
	}
	nilBuf.close(noSpan)
}
