package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Every message starts with a 24-byte header; the rest is a window of
// the seeded pattern.
//
//	[0:4)   circuit   index of the circuit within the workload
//	[4:8)   length    whole payload, header included
//	[8:16)  sequence  per circuit, from 0, advancing by one
//	[16:24) time      due time (open loop) or send time, ns since the
//	                  repetition's epoch; 0 where nothing reads it
const headerLen = 24

// patternEvery is how often the whole payload is compared with the
// pattern; the header is checked on every delivery.
const patternEvery = 64

func putHeader(b []byte, circuit uint32, seq uint64, t int64) {
	binary.LittleEndian.PutUint32(b[0:], circuit)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(b)))
	binary.LittleEndian.PutUint64(b[8:], seq)
	binary.LittleEndian.PutUint64(b[16:], uint64(t))
}

// pattern is the seeded byte stream payload bodies are windows of. A
// message's window depends on its sequence number, so neighbouring
// messages differ and a stale or misplaced block shows.
type pattern struct{ b []byte }

const (
	patternVariants = 8
	patternStride   = 61
)

func newPattern(seed int64, maxPayload int) *pattern {
	b := make([]byte, maxPayload+patternVariants*patternStride)
	rand.New(rand.NewSource(seed)).Read(b)
	return &pattern{b}
}

// variant spreads both consecutive messages and the every-64th checked
// ones over all windows.
func variant(seq uint64) int { return int((seq ^ seq>>6) % patternVariants) }

// body returns the n-byte body of the message with this sequence
// number.
func (p *pattern) body(seq uint64, n int) []byte {
	off := variant(seq) * patternStride
	return p.b[off : off+n]
}

// sendBuffers returns one ready payload per variant: a sender writes
// only the header per message, so filling costs the workload nothing.
func (p *pattern) sendBuffers(size int) [][]byte {
	bufs := make([][]byte, patternVariants)
	for v := range bufs {
		bufs[v] = make([]byte, size)
		copy(bufs[v][headerLen:], p.body(uint64(v), size-headerLen))
	}
	return bufs
}

// verifier checks one receiver's deliveries. Each stream is one
// receive connection: its header must name the stream's circuit and its
// sequence must advance by exactly one — FCFS exactly once in order,
// BROADCAST complete in order.
type verifier struct {
	pat      *pattern
	circuit  []uint32 // per stream: the circuit index its headers carry
	next     []uint64 // per stream: the sequence number due next
	failed   int64
	firstErr error
}

func newVerifier(pat *pattern, circuits ...uint32) *verifier {
	return &verifier{pat: pat, circuit: circuits, next: make([]uint64, len(circuits))}
}

func (v *verifier) fail(format string, a ...any) {
	v.failed++
	if v.firstErr == nil {
		v.firstErr = fmt.Errorf(format, a...)
	}
}

// check verifies one delivery on a stream and returns the header's
// time. A delivery with any fault counts as one failure.
func (v *verifier) check(stream int, b []byte) int64 {
	if len(b) < headerLen {
		v.fail("stream %d: delivery of %d bytes has no header", stream, len(b))
		return 0
	}
	circuit := binary.LittleEndian.Uint32(b[0:])
	length := binary.LittleEndian.Uint32(b[4:])
	seq := binary.LittleEndian.Uint64(b[8:])
	t := int64(binary.LittleEndian.Uint64(b[16:]))
	want := v.next[stream]
	v.next[stream] = seq + 1
	switch {
	case circuit != v.circuit[stream]:
		v.fail("stream %d: header names circuit %d, want %d", stream, circuit, v.circuit[stream])
	case int(length) != len(b):
		v.fail("stream %d seq %d: header says %d bytes, delivered %d", stream, seq, length, len(b))
	case seq != want:
		v.fail("stream %d: sequence %d delivered, %d was due", stream, seq, want)
	case seq%patternEvery == 0 && !bytes.Equal(b[headerLen:], v.pat.body(seq, len(b)-headerLen)):
		v.fail("stream %d seq %d: payload differs from the pattern", stream, seq)
	}
	return t
}

// tally is the failure account of one repetition: messages attempted,
// and calls that returned an error, deliveries that failed
// verification and messages undelivered at the drain deadline.
type tally struct {
	attempted int64
	failed    int64
	err       error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.err == nil {
		t.err = o.err
	}
}

// merge folds one goroutine's verifier into the tally.
func (t *tally) merge(v *verifier) {
	t.failed += v.failed
	if t.err == nil {
		t.err = v.firstErr
	}
}

// failedRatio is the failed_ratio metric.
func (t tally) failedRatio() float64 { return ratio(float64(t.failed), float64(t.attempted)) }

// checkLedger is the check after every repetition: the copy count per
// send takes the workload's exact value, every block is back in the
// arena and, for the in-process workloads, every circuit is closed.
func checkLedger(c counters, sends int64, copiesPerSend, freeBlocks, circuits int) error {
	switch {
	case c.copies != uint64(sends)*uint64(copiesPerSend):
		return fmt.Errorf("ledger: %d payload copies for %d sends, want exactly %d per send", c.copies, sends, copiesPerSend)
	case c.freeBlocks != freeBlocks:
		return fmt.Errorf("ledger: %d arena blocks free after the repetition, %d before the first", c.freeBlocks, freeBlocks)
	case c.circuits != circuits:
		return fmt.Errorf("ledger: %d circuits live after the closes, want %d", c.circuits, circuits)
	}
	return nil
}
