//go:build linux && (amd64 || arm64)

package mpf

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/shm"
)

// The windowed bridge (runBridge): window derivation and its clamps,
// every window edge in both directions, stale and hostile ring
// contents, and real children killed with a window in flight.

const workerEnv = "MPF_TEST_XPROC_WORKER"

// TestMain doubles the test binary as the cross-process worker, the
// re-exec trick of the benchmark: the crash tests
// need a peer that is a real process, because an armed crash point
// exits the process that hits it.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) != "" {
		cl, err := AttachProc()
		if err == nil {
			if err = cl.Serve(); err == nil {
				err = cl.Close()
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func serveOrSkip(t *testing.T, sc ServeConfig) *ProcServer {
	t.Helper()
	srv, err := ServeProc(sc)
	if errors.Is(err, ErrNoSharedBackend) {
		t.Skip("no shared backend")
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// attachPeer attaches an in-process peer to slot over its own second
// mapping of the segment, without serving: the caller decides whether
// it behaves.
func attachPeer(t *testing.T, srv *ProcServer, slot int) *ProcClient {
	t.Helper()
	parent, child := xprocPair(t)
	if err := srv.SendSegmentTo(parent, slot); err != nil {
		t.Fatal(err)
	}
	cl, err := AttachProcConn(child)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// attachWorker attaches a well-behaved in-process worker; the returned
// function finishes the slot and joins it.
func attachWorker(t *testing.T, srv *ProcServer, slot int) (finish func()) {
	t.Helper()
	cl := attachPeer(t, srv, slot)
	served := make(chan error, 1)
	go func() { served <- cl.Serve() }()
	return func() {
		t.Helper()
		if err := srv.FinishSlot(slot); err != nil {
			t.Fatalf("finish slot %d: %v", slot, err)
		}
		if err := <-served; err != nil {
			t.Fatalf("worker on slot %d: %v", slot, err)
		}
	}
}

// bridgeBoth runs both phases for msgs messages and requires every one
// back verified.
func bridgeBoth(t *testing.T, srv *ProcServer, slot, msgs, size int) {
	t.Helper()
	if n, err := srv.BridgeDown(slot, msgs, size); err != nil || n != msgs {
		t.Fatalf("slot %d down %d x %d B: %d round trips, %v", slot, msgs, size, n, err)
	}
	if n, err := srv.BridgeUp(slot, msgs, size); err != nil || n != msgs {
		t.Fatalf("slot %d up %d x %d B: %d round trips, %v", slot, msgs, size, n, err)
	}
}

// bridgeResult is what a bridge call run beside the test returned.
type bridgeResult struct {
	n   int
	err error
}

func goBridge(call func() (int, error)) <-chan bridgeResult {
	done := make(chan bridgeResult, 1)
	go func() {
		n, err := call()
		done <- bridgeResult{n, err}
	}()
	return done
}

// quiescent requires that nothing of the bridges' traffic is left in
// the facility: every block free, no credit held, nothing copied.
func quiescent(t *testing.T, srv *ProcServer, freeBlocks int) {
	t.Helper()
	st := srv.Facility().Stats()
	if free := srv.Facility().Core().Arena().FreeBlocks(); free != freeBlocks {
		t.Fatalf("%d of %d arena blocks free", free, freeBlocks)
	}
	if st.CreditsHeld != 0 {
		t.Fatalf("%d credit blocks still held", st.CreditsHeld)
	}
	if st.PayloadCopiesIn != 0 || st.PayloadCopiesOut != 0 {
		t.Fatalf("payload copies in/out %d/%d, want 0/0", st.PayloadCopiesIn, st.PayloadCopiesOut)
	}
}

// TestBridgeWindowEdges drives every edge of the window in both
// directions: nothing, one message (the lock-step exchange), one short
// of the window, exactly it, one over, and ten windows' worth.
func TestBridgeWindowEdges(t *testing.T) {
	srv := serveOrSkip(t, ServeConfig{
		Children: 1,
		RingCap:  64,
		Options:  []Option{WithBlockSize(128), WithBlocksPerProcess(512)},
	})
	const size = 300
	free := srv.Facility().Core().Arena().FreeBlocks()
	finish := attachWorker(t, srv, 0)

	w := srv.window(1<<20, size)
	if w != 64 {
		t.Fatalf("window = %d, want the ring capacity 64", w)
	}
	total := 0
	for _, msgs := range []int{0, 1, w - 1, w, w + 1, 10 * w} {
		if got := srv.window(msgs, size); got != max(1, min(msgs, w)) {
			t.Fatalf("window(%d msgs) = %d", msgs, got)
		}
		bridgeBoth(t, srv, 0, msgs, size)
		total += 2 * msgs
	}
	finish()
	quiescent(t, srv, free)
	st := srv.Facility().Stats()
	if st.LoanBatchSends != uint64(total) || st.HarvestedViews != uint64(total) {
		t.Fatalf("ledger: batched loans=%d harvested views=%d, want %d each", st.LoanBatchSends, st.HarvestedViews, total)
	}
}

// TestBridgeWindowClampsToArena: a ring of 8 over a 96 KiB arena and
// messages of up to 32 blocks. The window is the bridge's arena share —
// 768 blocks / (2 x 2 slots) / 32 = 6 — not the ring, and two bridges
// driven at once, each holding its full window, still get their next
// chunk: nobody parks in the allocator holding what the other needs.
func TestBridgeWindowClampsToArena(t *testing.T) {
	srv := serveOrSkip(t, ServeConfig{
		Children: 2,
		RingCap:  8,
		Options:  []Option{WithBlockSize(128), WithBlocksPerProcess(256)},
	})
	const msgs, size = 150, 3900
	arena := srv.Facility().Core().Arena()
	if arena.NumBlocks()*arena.BlockSize() != 96<<10 {
		t.Fatalf("arena of %d x %d B, want 96 KiB", arena.NumBlocks(), arena.BlockSize())
	}
	if w := srv.window(msgs, size); w != 6 {
		t.Fatalf("window = %d, want the arena share 6", w)
	}
	free := arena.FreeBlocks()

	finishes := []func(){attachWorker(t, srv, 0), attachWorker(t, srv, 1)}
	var wg sync.WaitGroup
	for slot := range finishes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n, err := srv.BridgeDown(slot, msgs, size); err != nil || n != msgs {
				t.Errorf("slot %d down: %d round trips, %v", slot, n, err)
			}
			if n, err := srv.BridgeUp(slot, msgs, size); err != nil || n != msgs {
				t.Errorf("slot %d up: %d round trips, %v", slot, n, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, finish := range finishes {
		finish()
	}
	quiescent(t, srv, free)
	if waits := arena.Stats().AllocBlocks; waits != 0 {
		t.Fatalf("%d allocations waited for blocks; a bridge's share should never run out", waits)
	}
}

// TestBridgeWindowClampsToCredit: under WithCredit(16) and 3-block
// messages the window is 5 messages — the budget, not the ring — and
// neither a chunk nor the window as a whole ever asks the circuit for
// more than it can grant.
func TestBridgeWindowClampsToCredit(t *testing.T) {
	srv := serveOrSkip(t, ServeConfig{
		Children: 1,
		RingCap:  64,
		Options:  []Option{WithBlockSize(128), WithBlocksPerProcess(512), WithCredit(16)},
	})
	const msgs, size = 120, 300
	if w := srv.window(msgs, size); w != 5 {
		t.Fatalf("window = %d, want 16 credit blocks / 3 = 5", w)
	}
	free := srv.Facility().Core().Arena().FreeBlocks()
	finish := attachWorker(t, srv, 0)
	bridgeBoth(t, srv, 0, msgs, size)
	finish()
	quiescent(t, srv, free)
	if stalls := srv.Facility().Stats().CreditStalls; stalls != 0 {
		t.Fatalf("%d credit stalls; the window should fit the budget", stalls)
	}
}

// TestBridgeDiscardsStaleGeneration leaves replies of an earlier
// incarnation in the up ring — a zombie's last pushes — ahead of and
// between the live worker's. The bridge drops them by their generation
// byte and matches only the current incarnation's.
func TestBridgeDiscardsStaleGeneration(t *testing.T) {
	srv := serveOrSkip(t, ServeConfig{
		Children: 1,
		RingCap:  64,
		Options:  []Option{WithBlockSize(128), WithBlocksPerProcess(512)},
	})
	cl := attachPeer(t, srv, 0)
	up, err := srv.Table().UpRing(0)
	if err != nil {
		t.Fatal(err)
	}
	stale := []shm.Record{
		{Tag: xtag(XTagAck, cl.Gen()+1), Word: 7},
		{Off: 1 << 40, Len: -3, Tag: xtag(XTagFilled, cl.Gen()+255)},
	}
	if err := up.PushBatch(stale, time.Time{}); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- cl.Serve() }()
	bridgeBoth(t, srv, 0, 40, 200)
	if err := up.PushBatch(stale, time.Time{}); err != nil {
		t.Fatal(err)
	}
	bridgeBoth(t, srv, 0, 40, 200)
	if err := srv.FinishSlot(0); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// ringWords finds the slot-0 rings' index words the way a hostile peer
// would: any process mapping the segment can scan it for the ring
// magic. Rings are laid out down then up; tail is at +64, head at +128
// (the layout comment in internal/shm/xring.go).
func ringWords(t *testing.T, seg *shm.Segment) (downHead, upTail int64) {
	t.Helper()
	const magic = 0x4D505253
	var bases []int64
	for off := int64(0); off+512 <= seg.Size() && len(bases) < 2; off += 64 {
		if seg.Atomic32(off).Load() == magic {
			bases = append(bases, off)
		}
	}
	if len(bases) < 2 {
		t.Fatalf("found %d rings in the segment, want 2", len(bases))
	}
	return bases[0] + 128, bases[1] + 64
}

// TestBridgeScribblingPeer is the hostile child: attached and claimed
// like any other, it lets the bridge fill its window of 32 (two chunks
// of 16) and then writes garbage where it can reach — a wild tail on
// the ring it produces; a wild head on the ring it consumes, slipped in
// behind a run of honest ACKs so that the bridge slides on and pushes
// again; a well-formed ACK naming a window outside the arena. Each time
// the bridge must neither hang nor follow the garbage: it returns
// ErrPeerDead with its window resolved, has reclaimed the slot itself,
// and the slot serves a well-behaved successor.
func TestBridgeScribblingPeer(t *testing.T) {
	far := time.Now().Add(time.Minute)
	scribbles := []struct {
		name    string
		hostile func(t *testing.T, cl *ProcClient, downHead, upTail *atomic.Uint32)
		done    int // round trips the bridge verified before it met the garbage
	}{
		{"wild tail", func(t *testing.T, cl *ProcClient, downHead, upTail *atomic.Uint32) {
			upTail.Store(1 << 31)
		}, 0},
		{"wild head", func(t *testing.T, cl *ProcClient, downHead, upTail *atomic.Uint32) {
			run := make([]shm.Record, 16)
			if n, err := cl.down.PopBatchAbort(run, far, nil); n != 16 || err != nil {
				t.Errorf("the first chunk: %d records, %v", n, err)
			}
			downHead.Store(0xDEAD0000)
			for i := range run {
				run[i].Tag = xtag(XTagAck, cl.Gen())
			}
			if err := cl.up.PushBatch(run, far); err != nil {
				t.Error(err)
			}
		}, 16},
		{"ack outside the arena", func(t *testing.T, cl *ProcClient, downHead, upTail *atomic.Uint32) {
			rec, err := cl.down.Pop(far)
			if err != nil {
				t.Error(err)
			}
			rec.Off, rec.Len, rec.Tag = cl.seg.Size()+4096, 1<<30, xtag(XTagAck, cl.Gen())
			if err := cl.up.Push(rec, far); err != nil {
				t.Error(err)
			}
		}, 0},
	}
	for _, sc := range scribbles {
		t.Run(sc.name, func(t *testing.T) {
			srv := serveOrSkip(t, ServeConfig{
				Children: 1,
				RingCap:  64,
				Options:  []Option{WithBlockSize(128), WithBlocksPerProcess(512), WithCredit(96)},
			})
			const msgs, size = 200, 256
			if w := srv.window(msgs, size); w != 32 {
				t.Fatalf("window = %d, want 32", w)
			}
			free := srv.Facility().Core().Arena().FreeBlocks()
			cl := attachPeer(t, srv, 0)

			bridged := goBridge(func() (int, error) { return srv.BridgeDown(0, msgs, size) })
			for cl.down.Len() != 32 { // the window is out and the bridge parked
				time.Sleep(time.Millisecond)
			}
			downHead, upTail := ringWords(t, cl.seg)
			sc.hostile(t, cl, cl.seg.Atomic32(downHead), cl.seg.Atomic32(upTail))

			select {
			case r := <-bridged:
				if !errors.Is(r.err, ErrPeerDead) || r.n != sc.done {
					t.Fatalf("bridge against a scribbling peer: %d round trips, %v; want %d, ErrPeerDead", r.n, r.err, sc.done)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("bridge hung on a scribbling peer")
			}
			if s := srv.Table().SlotState(0); s != core.SlotFree {
				t.Fatalf("slot state %d after the bridge gave up on its peer, want free", s)
			}
			if n := srv.Facility().Stats().PeerDeaths; n != 1 {
				t.Fatalf("PeerDeaths = %d, want 1", n)
			}
			quiescent(t, srv, free)
			if err := cl.abort(); !errors.Is(err, ErrPeerDead) {
				t.Fatalf("the scribbler's own liveness probe: %v, want ErrPeerDead", err)
			}

			finish := attachWorker(t, srv, 0)
			bridgeBoth(t, srv, 0, 50, size)
			finish()
			quiescent(t, srv, free)
		})
	}
}

// TestBridgePeerKilledMidWindow kills a real child at an armed fault
// point while the bridge has a full window of 64 records in flight,
// going down (child-ack) and coming up (child-fill). The worker takes
// its records sixteen at a time and answers a run only when it is
// through it, so at the 20th hit it has answered 16, holds 16 more and
// 48 sit unread in the ring. The reclaim must find and discard those
// (ReclaimReport.Views — the half of ReclaimSlot a lock-step bridge
// never reached), the parked bridge must come back with ErrPeerDead,
// its 16 verified round trips and everything else it held resolved,
// and the slot must serve a replacement.
func TestBridgePeerKilledMidWindow(t *testing.T) {
	phases := []struct {
		point  string
		bridge func(*ProcServer, int, int, int) (int, error)
	}{
		{"child-ack", (*ProcServer).BridgeDown},
		{"child-fill", (*ProcServer).BridgeUp},
	}
	for _, ph := range phases {
		t.Run(ph.point, func(t *testing.T) {
			srv := serveOrSkip(t, ServeConfig{
				Children: 1,
				RingCap:  64,
				Options:  []Option{WithBlockSize(128), WithBlocksPerProcess(512), WithCredit(192)},
			})
			const msgs, size = 400, 256
			if w := srv.window(msgs, size); w != 64 {
				t.Fatalf("window = %d, want 64", w)
			}
			free := srv.Facility().Core().Arena().FreeBlocks()

			worker := []string{workerEnv + "=1"}
			group, err := srv.SpawnEnv(1, os.Args[0], nil, func(int) []string {
				return append([]string{faultpoint.EnvVar + "=" + ph.point + ":crash@20"}, worker...)
			})
			if err != nil {
				t.Fatal(err)
			}
			defer group.Kill()

			bridged := goBridge(func() (int, error) { return ph.bridge(srv, 0, msgs, size) })

			// The child dies; the bridge, none the wiser, tops its window
			// up and parks with 48 records nobody will read.
			select {
			case <-group.Child(0).Done():
			case <-time.After(20 * time.Second):
				t.Fatal("the armed child never crashed")
			}
			down, err := srv.Table().DownRing(0)
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(20 * time.Second); down.Len() != 48; {
				if time.Now().After(deadline) {
					t.Fatalf("%d records in the down ring, want the 48 the child never took", down.Len())
				}
				time.Sleep(time.Millisecond)
			}
			_, gen := srv.Table().SlotStateGen(0)
			rep, ok := srv.ReclaimSlot(0, gen)
			if !ok {
				t.Fatal("ReclaimSlot refused the dead incarnation")
			}
			if rep.Views < 48 {
				t.Fatalf("reclaim discarded %d in-flight views, want at least the 48 in the ring", rep.Views)
			}
			r := <-bridged
			if !errors.Is(r.err, ErrPeerDead) || r.n != 16 {
				t.Fatalf("parked bridge: %d round trips, %v; want 16, ErrPeerDead", r.n, r.err)
			}
			if s := srv.Table().SlotState(0); s != core.SlotFree {
				t.Fatalf("slot state %d after reclaim, want free", s)
			}
			quiescent(t, srv, free)

			// The slot is reusable: a replacement without the fault spec
			// runs both phases over the reformatted rings.
			nc, err := group.Respawn(0, worker)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.SendSegmentTo(nc.Conn, 0); err != nil {
				t.Fatal(err)
			}
			bridgeBoth(t, srv, 0, msgs, size)
			if err := srv.FinishSlot(0); err != nil {
				t.Fatal(err)
			}
			if err := group.Wait(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			quiescent(t, srv, free)
		})
	}
}

// TestBridgeRecordsLineAligned holds the layout rule at the process
// boundary: the arena sits at an AlignUp'd offset of a page-aligned
// mapping, so every window a ring record names — a view's going down, a
// loan's going up — starts on a 64-byte boundary of the segment, at the
// default block size and at a larger one. The peer here is an honest
// worker that looks at each record's Off before answering it.
func TestBridgeRecordsLineAligned(t *testing.T) {
	far := time.Now().Add(time.Minute)
	for name, opts := range map[string][]Option{"default": nil, "block512": {WithBlockSize(512)}} {
		t.Run(name, func(t *testing.T) {
			srv := serveOrSkip(t, ServeConfig{Children: 1, RingCap: 64, Options: opts})
			if srv.arenaOff != shm.AlignUp(srv.arenaOff) {
				t.Fatalf("arena at segment offset %d, want a 64-byte boundary", srv.arenaOff)
			}
			if base := uintptr(unsafe.Pointer(unsafe.SliceData(srv.seg.Bytes()))); base%64 != 0 {
				t.Fatalf("segment mapped at %#x, want a 64-byte boundary", base)
			}
			cl := attachPeer(t, srv, 0)
			const msgs, size = 40, 3000
			for _, up := range []bool{false, true} {
				call := srv.BridgeDown
				if up {
					call = srv.BridgeUp
				}
				bridged := goBridge(func() (int, error) { return call(0, msgs, size) })
				recs := make([]shm.Record, maxChunk)
				for seen := 0; seen < msgs; {
					n, err := cl.down.PopBatchAbort(recs, far, nil)
					if err != nil {
						t.Fatal(err)
					}
					for i := range recs[:n] {
						rec := &recs[i]
						if rec.Off%64 != 0 || rec.Len != size {
							t.Errorf("up=%v: record window [%d, +%d), want a 64-byte boundary and %d bytes", up, rec.Off, rec.Len, size)
						}
						if !up {
							rec.Tag = xtag(XTagAck, cl.Gen())
							continue
						}
						pay, err := cl.payload(*rec)
						if err != nil {
							t.Fatal(err)
						}
						fillPattern(pay, 0, int(rec.Word))
						rec.Tag, rec.Word = xtag(XTagFilled, cl.Gen()), xsum(pay)
					}
					if err := cl.up.PushBatch(recs[:n], far); err != nil {
						t.Fatal(err)
					}
					seen += n
				}
				if r := <-bridged; r.n != msgs || r.err != nil {
					t.Fatalf("up=%v: %d round trips, %v", up, r.n, r.err)
				}
			}
		})
	}
}

// TestBridgeVerifyFailureDrainsWindow: a verification failure is the
// call's, not the slot's. The peer here keeps the ring protocol to the
// letter but reports a wrong checksum for one window in the second of
// the four chunks of a BridgeUp. That call must fail — after the first
// chunk's 16 round trips, with the remaining replies of its window
// matched and discarded rather than left in the ring for the next call
// to trip over — and the slot must stay attached and serve the next
// calls in full.
func TestBridgeVerifyFailureDrainsWindow(t *testing.T) {
	far := time.Now().Add(time.Minute)
	srv := serveOrSkip(t, ServeConfig{
		Children: 1,
		RingCap:  64,
		Options:  []Option{WithBlockSize(128), WithBlocksPerProcess(512)},
	})
	const msgs, size, lie = 64, 300, 20 // the 21st FILLED of the call: chunk two of four
	if w := srv.window(msgs, size); w != 64 {
		t.Fatalf("window = %d, want 64", w)
	}
	free := srv.Facility().Core().Arena().FreeBlocks()
	cl := attachPeer(t, srv, 0)

	// An honest worker but for the one checksum.
	served := make(chan error, 1)
	go func() {
		recs := make([]shm.Record, maxChunk)
		for filled := 0; ; {
			n, err := cl.down.PopBatchAbort(recs, far, nil)
			if err != nil {
				served <- err
				return
			}
			for i := range recs[:n] {
				rec := &recs[i]
				switch xtagKind(rec.Tag) {
				case XTagDone:
					served <- cl.up.PushBatch(recs[:i], far)
					return
				case XTagView:
					rec.Tag = xtag(XTagAck, cl.Gen())
				case XTagLoan:
					pay, err := cl.payload(*rec)
					if err != nil {
						served <- err
						return
					}
					fillPattern(pay, 0, int(rec.Word))
					rec.Tag, rec.Word = xtag(XTagFilled, cl.Gen()), xsum(pay)
					if filled == lie {
						rec.Word ^= 1
					}
					filled++
				}
			}
			if err := cl.up.PushBatch(recs[:n], far); err != nil {
				served <- err
				return
			}
		}
	}()

	n, err := srv.BridgeUp(0, msgs, size)
	if err == nil || errors.Is(err, ErrPeerDead) || n != 16 {
		t.Fatalf("BridgeUp against a wrong checksum: %d round trips, %v; want 16 and a verification error", n, err)
	}
	if st := srv.Table().SlotState(0); st != core.SlotAttached {
		t.Fatalf("slot state %d after a verification failure, want attached", st)
	}
	if up, _ := srv.Table().UpRing(0); up.Len() != 0 || cl.down.Len() != 0 {
		t.Fatalf("%d replies and %d records left in the rings by the failed call", up.Len(), cl.down.Len())
	}
	quiescent(t, srv, free)

	bridgeBoth(t, srv, 0, msgs, size)
	if err := srv.FinishSlot(0); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if n := srv.Facility().Stats().PeerDeaths; n != 0 {
		t.Fatalf("PeerDeaths = %d, want 0", n)
	}
	quiescent(t, srv, free)
}

// TestBridgeSteadyStateAllocs bounds what a bridge call allocates: 123
// allocations for a BridgeDown(0, 64, 1024), 1.92 per message, where
// the parent of the change that gave runBridge its chunk slab read 135
// (2.11 per message: a chunk, its records, its views and the growing
// list of chunks in flight, for each of four chunks). What is left is
// the circuit's — each chunk's LoanBatch and views — and the three
// makes of the slab per call; the loop itself allocates nothing per
// chunk.
func TestBridgeSteadyStateAllocs(t *testing.T) {
	srv := serveOrSkip(t, ServeConfig{
		Children: 1,
		RingCap:  64,
		Options:  []Option{WithBlockSize(512), WithBlocksPerProcess(512)},
	})
	const msgs, size = 64, 1024
	const bound = 127 // per call; four over the 123 measured, eight under the parent's 135
	finish := attachWorker(t, srv, 0)
	bridgeBoth(t, srv, 0, msgs, size) // open the bridge, warm the pools
	perCall := testing.AllocsPerRun(50, func() {
		if n, err := srv.BridgeDown(0, msgs, size); err != nil || n != msgs {
			t.Fatalf("down: %d round trips, %v", n, err)
		}
	})
	finish()
	if perCall > bound {
		t.Fatalf("%.0f allocations per call of %d (%.2f per message), want at most %d", perCall, msgs, perCall/msgs, bound)
	}
}
