// Package repro reproduces McGuire, Malony and Reed, "MPF: A Portable
// Message Passing Facility for Shared Memory Multiprocessors" (ICPP
// 1987).
//
// The public API lives in repro/mpf. The substrates (shared-memory
// arena, spin locks, message blocks, process model, discrete-event
// Balance 21000 simulator) live under internal/, the paper's two
// applications under internal/apps, and the benchmark harness that
// regenerates every figure of the paper's evaluation under
// internal/bench and cmd/mpfbench.
//
// Beyond the paper, the facility shards its circuit name registry so
// opens and closes on distinct circuits never contend (DESIGN.md §4),
// offers batched send/receive primitives that pay the per-message
// fixed costs once per batch (DESIGN.md §6), multiplexes thousands of
// circuits per goroutine through an event-driven Selector with
// per-circuit wakeups (DESIGN.md §10), carries a zero-copy payload
// plane (DESIGN.md §11): contiguous-span block allocation, loaned send
// buffers written in place (SendConn.Loan) and pinned receive views
// read in place (RecvConn.ReceiveView), which make the paper's two
// structural copies optional — BROADCAST fan-out reads one shared
// payload instance instead of taking one copy per receiver — and
// batches that plane end to end (DESIGN.md §12): SendConn.LoanBatch
// allocates N send windows in one arena transaction and commits them
// under one circuit lock, while Selector.WaitViews harvests ready
// circuits into pinned views inside the wait round and ReleaseViews
// returns them in per-circuit transactions, so the per-message fixed
// costs are paid per batch — and bounds every circuit's arena share
// with per-circuit credit flow control (DESIGN.md §13): WithCredit(n)
// grants each circuit a receiver-side budget of n accounted blocks,
// debited by the send paths at allocation and re-granted as receivers
// release the blocks, so a hot tenant parks on its own budget instead
// of starving the facility — and tunes the hot path to its load and
// machine (DESIGN.md §16): WaitViews budget <= 0 selects an
// EWMA-adapted harvest budget under a fairness cap, WithAffinity pins
// Run goroutines to cores through internal/affinity (raw
// sched_setaffinity on Linux, best-effort everywhere), WithHugePages
// advises MADV_HUGEPAGE over the arena's 2 MiB-aligned interior, and
// the hot words are laid out by cache line — by who writes what — with
// layout regression tests holding the offsets. Traffic accounting rides
// on the connections (DESIGN.md §8): no facility-wide word is written
// per message, and Stats() sums the per-connection counters on read.
// mpfbench -contention, -copies,
// -loanbatch, -credit and -tuning quantify these against the paper's
// single-lock, two-copy, per-message, globally-starved, fixed-budget
// layout (-select holds the per-circuit wakeups to about one per
// message; the facility-wide pulse they replaced is no longer built),
// and mpfbench -json records the headline numbers as a
// machine-readable BENCH.json, which mpfbench -compare diffs across
// runs. CI (.github/workflows/ci.yml) gates build, vet, staticcheck,
// gofmt, the unit suite on two Go versions, the race detector over the
// whole module, a
// benchmark smoke, the perf-trajectory artifact, a perf-regression
// comparison against the previous run (seeded by BENCH_BASELINE.json)
// and a protocol-invariant fuzz smoke on every change.
//
// See README.md and DESIGN.md.
package repro
