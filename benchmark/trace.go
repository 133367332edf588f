package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// The traced run wraps the benchmark's own calls into the facility in
// spans. A span is recorded into its goroutine's pre-allocated slice
// and everything is written out when the workload ends.

type spanName uint8

const (
	spSend spanName = iota
	spReceive
	spVerify
	spRoundtrip
	spReceiveFCFS
	spReceiveBcast
	spLoanBatch
	spFill
	spCommit
	spWaitViews
	spRelease
	spBridgeDown
	spBridgeUp
	numSpans
)

var spanNames = [numSpans]string{
	"send", "receive", "verify", "roundtrip", "receive.fcfs", "receive.bcast",
	"loanbatch", "fill", "commit", "waitviews", "release", "bridge_down", "bridge_up",
}

// spanLayer is the layer a span's time is spent in: a call into the
// facade, or the benchmark's own work around it.
func spanLayer(n spanName) string {
	switch n {
	case spVerify, spFill, spRoundtrip:
		return "benchmark"
	}
	return "mpf"
}

const noSpan = -1

type span struct {
	name       spanName
	n          int32 // deliveries the span covers
	parent     int32 // index in the same buffer, or noSpan
	id         int64 // message or batch number
	start, end int64 // ns since the tracer's epoch
}

// spanBuf is one goroutine's span store. A nil *spanBuf records
// nothing, so untraced loops carry only a not-taken branch.
type spanBuf struct {
	epoch time.Time
	every int
	spans []span
}

// spansPerBuf bounds one goroutine's spans over a whole traced
// workload; sampling keeps the recording within it.
const spansPerBuf = 1 << 16

// tracer holds the two goroutines' buffers of one workload.
type tracer struct {
	every int
	bufs  [2]*spanBuf
}

// newTracer sizes the sampling for expected spans per goroutine: one
// message in k is traced.
func newTracer(expected int) *tracer {
	t := &tracer{every: expected/spansPerBuf + 1}
	epoch := time.Now()
	for i := range t.bufs {
		t.bufs[i] = &spanBuf{epoch: epoch, every: t.every, spans: make([]span, 0, spansPerBuf)}
	}
	return t
}

// buf returns goroutine g's buffer; nil from a nil tracer.
func (t *tracer) buf(g int) *spanBuf {
	if t == nil {
		return nil
	}
	return t.bufs[g]
}

// sampled reports whether message i is traced: one in every, chosen by
// a hash of i so that the choice does not fall in step with anything
// periodic in the workload, such as the 64 messages in flight.
func (b *spanBuf) sampled(i int) bool {
	return b != nil && int(uint32(i)*2654435761>>8)%b.every == 0 && len(b.spans)+8 < cap(b.spans)
}

// open starts a span when on is set and returns its index for close
// and for its children's parent.
func (b *spanBuf) open(on bool, name spanName, parent int32, id int64, n int) int32 {
	if !on {
		return noSpan
	}
	return b.record(name, parent, id, n)
}

func (b *spanBuf) record(name spanName, parent int32, id int64, n int) int32 {
	b.spans = append(b.spans, span{name: name, n: int32(n), parent: parent, id: id, start: int64(time.Since(b.epoch))})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) close(i int32) {
	if i != noSpan {
		b.spans[i].end = int64(time.Since(b.epoch))
	}
}

// selfTimes returns, per span name, the self time per delivery in ns:
// a span's duration minus the children it covers, summed over the
// sampled spans and divided by the deliveries they cover.
func (t *tracer) selfTimes() [numSpans]float64 {
	var self, n [numSpans]float64
	for _, b := range t.bufs {
		children := make([]int64, len(b.spans))
		for _, s := range b.spans {
			if s.parent != noSpan {
				children[s.parent] += s.end - s.start
			}
		}
		for i, s := range b.spans {
			self[s.name] += float64(s.end - s.start - children[i])
			n[s.name] += float64(s.n)
		}
	}
	for i := range self {
		self[i] = ratio(self[i], n[i])
	}
	return self
}

// write stores the spans as JSON under dir and returns the file's path.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"sample_every\":%d,\"spans\":[", workload, t.every)
	first, offset := true, 0
	for g, b := range t.bufs {
		for _, s := range b.spans {
			if !first {
				w.WriteByte(',')
			}
			first = false
			parent := int(s.parent)
			if parent != noSpan {
				parent += offset
			}
			fmt.Fprintf(w, "\n{\"name\":%q,\"layer\":%q,\"goroutine\":%d,\"start\":%d,\"end\":%d,\"parent\":%d,\"id\":%d,\"n\":%d}",
				spanNames[s.name], spanLayer(s.name), g, s.start, s.end, parent, s.id, s.n)
		}
		offset += len(b.spans)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
