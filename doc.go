// Package repro reproduces McGuire, Malony and Reed, "MPF: A Portable
// Message Passing Facility for Shared Memory Multiprocessors" (ICPP
// 1987).
//
// The public API lives in repro/mpf. The substrates (shared-memory
// arena, locks, message blocks, process model, discrete-event
// Balance 21000 simulator) live under internal/, the paper's two
// applications under internal/apps, and the harness that regenerates
// every figure of the paper's evaluation under internal/bench and
// cmd/mpfbench. How fast the facility is on a given host is measured
// by the repository benchmark, benchmark/ (bash benchmark/run.sh).
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
// of starving the facility — and lays the hot words out by cache line,
// by who writes what, with layout regression tests holding the offsets
// (DESIGN.md §16). Cross-process children are pinned one to a core
// where the platform allows it (DESIGN.md §15). Traffic accounting rides
// on the connections (DESIGN.md §8): no facility-wide word is written
// per message, and Stats() sums the per-connection counters on read.
// Where the paper's test-and-set locks spun, the facility's park: a
// contended waiter sleeps until the holder hands it the lock, so a
// circuit's two parties take turns on one core instead of running
// against each other on two (DESIGN.md §16).
// CI (.github/workflows/ci.yml) gates build, vet, staticcheck, gofmt,
// the unit suite on two Go versions, the race detector over the whole
// module, benchmark, cross-process and crash smokes, a full run of the
// repository benchmark compared against the latest main run's, and a
// protocol-invariant fuzz smoke on every change.
//
// See README.md and DESIGN.md.
package repro
