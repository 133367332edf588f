package core

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/shm"
)

// parkedIn waits until some goroutine is blocked inside the function
// named frame — the way a scripted test knows that the other side has
// parked and released its lock, without sleeping and hoping.
func parkedIn(t *testing.T, frame string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			head, _, _ := strings.Cut(g, "\n")
			blocked := strings.Contains(head, "[sync.Cond.Wait") || strings.Contains(head, "[select") ||
				strings.Contains(head, "[chan receive")
			if blocked && strings.Contains(g, frame) {
				return
			}
		}
	}
	t.Fatalf("no goroutine parked in %s", frame)
}

// statsScript drives one facility through every primitive that counts,
// on one goroutine but for three deliberate parks (a Receive, a
// Selector.Wait and a credit stall, each entered by a helper goroutine
// and observed parked before the script goes on), and returns it. Every
// count it produces is determined by the script. It uses only what the
// parent commit also exports, so the same file run there yields the
// literals TestStatsAgree holds this commit to.
func statsScript(t *testing.T) *Facility {
	t.Helper()
	f, err := Init(Config{
		MaxLNVCs: 6, MaxProcesses: 8, BlockSize: 64, BlocksPerProcess: 64,
		CreditBlocks: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	open := func(id ID, err error) ID {
		t.Helper()
		must(err)
		return id
	}
	pay := func(n int) []byte { return bytes.Repeat([]byte{byte(n)}, n) }
	buf := make([]byte, 64)

	// Circuit a: one sender, an FCFS and a BROADCAST receiver.
	sa := open(f.OpenSend(0, "a"))
	r1 := open(f.OpenReceive(1, "a", FCFS))
	r2 := open(f.OpenReceive(2, "a", Broadcast))

	// A receive that has to park, then the send that wakes it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if n, err := f.Receive(1, r1, buf); err != nil || n != 7 {
			t.Errorf("parked Receive: n %d, %v", n, err)
		}
	}()
	parkedIn(t, "core.(*Facility).waitClaim")
	must(f.Send(0, sa, pay(7)))
	wg.Wait()
	if _, ok, err := f.TryReceive(2, r2, buf); err != nil || !ok {
		t.Fatalf("TryReceive hit: %v, %v", ok, err)
	}

	// Every way to send: 3 + 1 + 1 + 2 messages enqueued, one loan and
	// two batch loans aborted.
	for _, n := range []int{10, 100, 300} {
		must(f.Send(0, sa, pay(n)))
	}
	ln, err := f.SendLoan(0, sa, 50)
	must(err)
	ln.CopyFrom(pay(50)) // counted
	must(ln.Commit())
	ln, err = f.SendLoan(0, sa, 40)
	must(err)
	ln.View().CopyFrom(pay(40)) // production in place: not counted
	must(ln.Commit())
	ln, err = f.SendLoan(0, sa, 40)
	must(err)
	ln.CopyFrom(pay(40)) // counted although the loan is never sent
	ln.Abort()
	lb, err := f.LoanBatch(0, sa, []int{8, 8, 8, 8})
	must(err)
	for i := 0; i < 4; i++ {
		lb.Fill(i, pay(8))
	}
	must(lb.CommitN(2))

	// Every way to receive, on the FCFS side into short buffers, so that
	// bytes received and bytes sent differ.
	short := make([]byte, 16)
	if n, err := f.Receive(1, r1, short); err != nil || n != 10 {
		t.Fatalf("Receive: %d, %v", n, err)
	}
	if n, err := f.Receive(1, r1, short); err != nil || n != 16 {
		t.Fatalf("truncated Receive: %d, %v", n, err)
	}
	if n, ok, err := f.TryReceive(1, r1, short); err != nil || !ok || n != 16 {
		t.Fatalf("TryReceive: %d, %v, %v", n, ok, err)
	}
	v, err := f.ReceiveView(1, r1)
	must(err)
	v.CopyTo(buf) // counted
	v.Release()
	if ok, err := f.CheckReceive(1, r1); err != nil || !ok {
		t.Fatalf("CheckReceive: %v, %v", ok, err)
	}

	// The BROADCAST side through views and a selector: a reporting round,
	// a harvest of three, one of one, and a wait that parks.
	v, ok, err := f.TryReceiveView(2, r2)
	if err != nil || !ok {
		t.Fatalf("TryReceiveView: %v, %v", ok, err)
	}
	v.Release()
	sel, err := f.NewSelector(2)
	must(err)
	must(sel.Add(r2))
	if ids, err := sel.Wait(); err != nil || len(ids) != 1 {
		t.Fatalf("Selector.Wait: %v, %v", ids, err)
	}
	vs, err := sel.HarvestViews(3)
	must(err)
	if len(vs) != 3 {
		t.Fatalf("harvested %d views, want 3", len(vs))
	}
	ReleaseViews(vs)
	vs, err = sel.HarvestViews(1)
	must(err)
	if len(vs) != 1 {
		t.Fatalf("harvested %d views, want 1", len(vs))
	}
	ReleaseViews(vs)
	for {
		v, ok, err := f.TryReceiveView(2, r2)
		must(err)
		if !ok {
			break // the TryReceive miss
		}
		v.Release()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if ids, err := sel.Wait(); err != nil || len(ids) != 1 {
			t.Errorf("parked Selector.Wait: %v, %v", ids, err)
		}
	}()
	parkedIn(t, "core.(*Selector).parkWait")
	time.Sleep(2 * shm.WakeWindow) // so the send below hands off, always
	must(f.Send(0, sa, pay(5)))
	wg.Wait()
	must(sel.Close())

	// A credit stall: the budget is 32 blocks, five 6-block messages fit,
	// the sixth parks until the FCFS receiver (the BROADCAST one has left,
	// with a backlog of its own) lets blocks go.
	must(f.CloseReceive(2, r2))
	for {
		_, ok, err := f.TryReceive(1, r1, buf)
		must(err)
		if !ok {
			break
		}
	}
	for i := 0; i < 5; i++ {
		must(f.Send(0, sa, pay(301)))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := f.Send(0, sa, pay(301)); err != nil {
			t.Errorf("stalled Send: %v", err)
		}
	}()
	parkedIn(t, "core.(*Facility).acquireCredit")
	if _, err := f.Receive(1, r1, buf); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// A selector over two more circuits, drained with TryReceive.
	sb := open(f.OpenSend(3, "b"))
	sc := open(f.OpenSend(3, "c"))
	rb := open(f.OpenReceive(4, "b", FCFS))
	rc := open(f.OpenReceive(4, "c", FCFS))
	must(f.Send(3, sb, pay(33)))
	must(f.Send(3, sc, pay(44)))
	sel, err = f.NewSelector(4)
	must(err)
	must(sel.Add(rb))
	must(sel.Add(rc))
	ids, err := sel.Wait()
	if err != nil || len(ids) != 2 {
		t.Fatalf("Selector.Wait over b and c: %v, %v", ids, err)
	}
	for _, id := range ids {
		if _, ok, err := f.TryReceive(4, id, buf); err != nil || !ok {
			t.Fatalf("TryReceive on circuit %d: %v, %v", id, ok, err)
		}
	}
	must(sel.Close())

	// A receiver leaves a backlog behind, the circuit dies with it (three
	// drops), and its descriptor comes back under another name; a view
	// held across that circuit's death is released after it.
	sd := open(f.OpenSend(5, "d"))
	rd := open(f.OpenReceive(6, "d", FCFS))
	for i := 0; i < 3; i++ {
		must(f.Send(5, sd, pay(12)))
	}
	must(f.CloseReceive(6, rd))
	must(f.CloseSend(5, sd))
	se := open(f.OpenSend(5, "e"))
	re := open(f.OpenReceive(6, "e", Broadcast))
	must(f.Send(5, se, pay(21)))
	must(f.Send(5, se, pay(22)))
	held, err := f.ReceiveView(6, re)
	must(err)
	must(f.CloseReceive(6, re))
	must(f.CloseSend(5, se))
	held.Release()
	return f
}

// TestStatsAgree holds every Stats field to the value the same script
// produced when the counters were facility-wide atomics: the literals
// below were printed by this file's statsScript on commit 59ac70f (the
// parent of the change that moved the counters onto the connections),
// less the legs of the copying batch primitives deleted since.
// Then the other reading of the same words: Info's per-connection
// figures, summed over the circuits still alive, plus what the script is
// known to have left on circuits since deleted, are the facility's.
func TestStatsAgree(t *testing.T) {
	f := statsScript(t)
	got := f.Stats()
	want := statsAgreeWant
	if got != want {
		gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < gv.NumField(); i++ {
			if g, w := gv.Field(i).Uint(), wv.Field(i).Uint(); g != w {
				t.Errorf("Stats.%s = %d, want %d", gv.Type().Field(i).Name, g, w)
			}
		}
	}

	var tx SenderTraffic
	var rx ReceiverTraffic
	addTx := func(s SenderTraffic) {
		tx.Msgs += s.Msgs
		tx.Bytes += s.Bytes
		tx.CopiesIn += s.CopiesIn
		tx.Loans += s.Loans
	}
	addRx := func(r ReceiverTraffic) {
		rx.Msgs += r.Msgs
		rx.Bytes += r.Bytes
		rx.CopiesOut += r.CopiesOut
		rx.Views += r.Views
		rx.Waits += r.Waits
	}
	for _, name := range []string{"a", "b", "c"} {
		id, ok := f.LNVCByName(name)
		if !ok {
			t.Fatalf("circuit %q gone", name)
		}
		info, err := f.LNVCInfo(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.SenderTraffic) != info.Senders || len(info.ReceiverTraffic) != info.FCFSRecvs+info.BcastRecvs {
			t.Errorf("circuit %q: %d/%d traffic entries for %d senders, %d receivers", name,
				len(info.SenderTraffic), len(info.ReceiverTraffic), info.Senders, info.FCFSRecvs+info.BcastRecvs)
		}
		for _, s := range info.SenderTraffic {
			addTx(s)
		}
		for _, r := range info.ReceiverTraffic {
			if r.Proto != info.ReceiverProto[r.PID] {
				t.Errorf("circuit %q receiver %d: protocol %v, want %v", name, r.PID, r.Proto, info.ReceiverProto[r.PID])
			}
			addRx(r)
		}
		addTx(info.ClosedSenders)
		addRx(info.ClosedReceivers)
	}
	// Circuits d and e are deleted: d carried 3 sends of 12 bytes and no
	// receive, e 2 sends (21 + 22 bytes) and one 21-byte view.
	addTx(SenderTraffic{Msgs: 5, Bytes: 3*12 + 21 + 22, CopiesIn: 5})
	addRx(ReceiverTraffic{Msgs: 1, Bytes: 21, Views: 1})
	// The two escape hatches hold no lock and count on no connection:
	// one CopyTo on a view, one CopyFrom into a loan that was aborted.
	const viewCopies, unsentCopies = 1, 1
	if tx.Msgs != got.Sends || tx.Bytes != got.BytesSent || tx.CopiesIn+unsentCopies != got.PayloadCopiesIn ||
		tx.Loans != got.LoanSends+got.LoanBatchSends {
		t.Errorf("senders sum to %+v, facility says %+v", tx, got)
	}
	if rx.Msgs != got.Receives || rx.Bytes != got.BytesRecvd || rx.CopiesOut+viewCopies != got.PayloadCopiesOut ||
		rx.Views != got.ViewReceives+got.HarvestedViews || rx.Waits != got.ReceiveWaits {
		t.Errorf("receivers sum to %+v, facility says %+v", rx, got)
	}

	// The circuit gauges, on the one circuit that still holds messages.
	ida, _ := f.LNVCByName("a")
	info, err := f.LNVCInfo(ida)
	if err != nil {
		t.Fatal(err)
	}
	if info.QueuedMsgs != 5 || info.PinnedMsgs != 0 || info.OldestSeq != info.NextSeq-5 || info.ParkedWaiters != 0 {
		t.Errorf("circuit a gauges: queued %d pinned %d oldest %d next %d waiters %d",
			info.QueuedMsgs, info.PinnedMsgs, info.OldestSeq, info.NextSeq, info.ParkedWaiters)
	}
	if uint64(info.CreditUsed) != got.CreditsHeld {
		t.Errorf("circuit a debits %d, CreditsHeld %d", info.CreditUsed, got.CreditsHeld)
	}
}

// statsAgreeWant is what statsScript left in Stats on commit 59ac70f,
// the same in 30 plain and 10 -race runs of it there — but for
// MuxHandoffs, which that commit did not count: the script's one parked
// Selector.Wait is woken by a send more than a wake window after it
// parked, which is one hand-off. The script then also sent a batch of
// two (20 and 30 bytes) and received two on the FCFS side in one
// batch, into 16- and 8-byte buffers; without them there are 2 sends,
// 50 bytes sent, 2 copies in, 4 receives (2 FCFS, 2 BROADCAST views),
// 74 bytes received, 2 copies out and 2 views fewer, and the two Stats
// fields that counted batch calls (1 and 1) are gone. MuxWakeups and
// MuxSpurious read 2 and 1 while the selector parked on a channel: the
// script Adds a circuit that is already ready, and Add also signalled
// the channel, leaving a token that the first Wait never took, since it
// found the circuit on its ready list and did not park. The parked Wait
// later took that stale token, woke with nothing deliverable and parked
// again. A park that sleeps only while the ready list is empty wakes
// once.
var statsAgreeWant = Stats{
	Opens: 11, Closes: 5, Sends: 22, Receives: 21, BytesSent: 2490, BytesRecvd: 845,
	Checks: 1, LNVCsCreated: 5, LNVCsDeleted: 2, MessagesDropped: 5, ReceiveWaits: 1,
	MuxWakeups: 1, MuxSpurious: 0, MuxHandoffs: 1,
	RegistryAcquisitions: 16, RegistryContended: 0,
	PayloadCopiesIn: 20, PayloadCopiesOut: 13, LoanSends: 2, ViewReceives: 5,
	LoanBatchSends: 2, HarvestedViews: 4, CreditStalls: 1, CreditsHeld: 30,
}

// TestStatsMonotonic polls Stats from a third goroutine while two others
// stream, close and reopen their connections (so counts move from live
// descriptors to closed groups, circuits die and descriptors recycle
// under the reader): no field but the CreditsHeld gauge ever decreases,
// and at quiescence every message sent was received or dropped.
func TestStatsMonotonic(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	const rounds, perRound = 40, 50
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		prev := f.Stats()
		for {
			cur := f.Stats()
			pv, cv := reflect.ValueOf(prev), reflect.ValueOf(cur)
			for i := 0; i < cv.NumField(); i++ {
				name := cv.Type().Field(i).Name
				if name == "CreditsHeld" {
					continue
				}
				if cv.Field(i).Uint() < pv.Field(i).Uint() {
					t.Errorf("Stats.%s went from %d to %d", name, pv.Field(i).Uint(), cv.Field(i).Uint())
				}
			}
			prev = cur
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()

	// Round r runs on circuit "m<r%2>": the sender opens first and closes
	// last, so every message is either received or dropped with the
	// circuit, and the two names alternate so that a descriptor is
	// recycled while its predecessor's counts are being read.
	ready := make(chan ID)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // sender
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			name := "m" + string(rune('0'+r%2))
			id, err := f.OpenSend(0, name)
			if err != nil {
				t.Error(err)
				return
			}
			ready <- id
			<-ready // receiver connected
			for i := 0; i < perRound; i++ {
				if err := f.Send(0, id, []byte("payload")); err != nil {
					t.Error(err)
					return
				}
			}
			<-ready // receiver gone
			if err := f.CloseSend(0, id); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() { // receiver: takes a varying share and leaves the rest behind
		defer wg.Done()
		buf := make([]byte, 16)
		for r := 0; r < rounds; r++ {
			<-ready
			id, err := f.OpenReceive(1, "m"+string(rune('0'+r%2)), FCFS)
			if err != nil {
				t.Error(err)
				return
			}
			ready <- id
			for i := 0; i < perRound-r; i++ {
				if _, err := f.Receive(1, id, buf); err != nil {
					t.Error(err)
					return
				}
			}
			if err := f.CloseReceive(1, id); err != nil {
				t.Error(err)
			}
			ready <- id
		}
	}()
	wg.Wait()
	close(stop)
	poller.Wait()
	st := f.Stats()
	if st.Sends != rounds*perRound || st.Sends != st.Receives+st.MessagesDropped {
		t.Errorf("at quiescence: %d sends, %d receives + %d dropped", st.Sends, st.Receives, st.MessagesDropped)
	}
}

// facilityBytes copies the Facility struct's own memory.
func facilityBytes(f *Facility) []byte {
	return bytes.Clone(unsafe.Slice((*byte)(unsafe.Pointer(f)), unsafe.Sizeof(*f)))
}

// TestNoFacilityWideWritePerMessage is the structural form of "traffic
// accounting rides on the connection": 10 000 rounds of each plane, with
// nobody parking, leave every byte of the Facility struct — the header
// words, the registry words, the rare-event cell — exactly as it was.
// With counters in the Facility this failed by construction: a Send +
// Receive did six atomic adds there.
//
// Each leg's circuit and arena lock acquisitions are pinned too, after
// one warm-up round. An uncredited send takes the circuit lock once, in
// publish, and a copying receive once, claiming, copying out and
// retiring the message in one hold: a Send + Receive is 2 circuit locks,
// and a Send fanned out to one FCFS and one BROADCAST copying receiver
// 3. A loan + view adds the view's Release. None of the three takes the
// arena lock: the retirement parks the message's one span in the
// circuit's recycle slot and the next send takes it back. A batch of 4
// + harvest + ReleaseViews takes each lock once per step, whatever the
// batch, the arena's to allocate and to free.
//
// The second half is the allow-list. The two copy escape hatches hold no
// lock, so they count on a facility-wide line of their own, and that
// line is the only thing they change.
func TestNoFacilityWideWritePerMessage(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	sid, _ := f.OpenSend(0, "w")
	rid, err := f.OpenReceive(1, "w", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	fan, _ := f.OpenSend(0, "fan")
	if _, err := f.OpenReceive(2, "fan", FCFS); err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenReceive(3, "fan", Broadcast); err != nil {
		t.Fatal(err)
	}
	sel, err := f.NewSelector(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	if err := sel.Add(rid); err != nil {
		t.Fatal(err)
	}
	const rounds = 10000
	payload := make([]byte, 64)
	buf := make([]byte, 64)

	// leg runs round once, then rounds times, and checks the circuit lock
	// of the circuit id and the arena lock were each taken the wanted
	// number of times per counted round.
	leg := func(name string, id ID, circuitLocks, arenaLocks uint64, round func()) {
		t.Helper()
		round()
		l := f.slots[id].Load()
		circuit0, _ := l.lock.Stats()
		arena0, _ := f.arena.LockStats()
		for i := 0; i < rounds; i++ {
			round()
		}
		circuit1, _ := l.lock.Stats()
		arena1, _ := f.arena.LockStats()
		if got := circuit1 - circuit0; got != circuitLocks*rounds {
			t.Errorf("%s: %d circuit lock acquisitions in %d rounds, want %d each", name, got, rounds, circuitLocks)
		}
		if got := arena1 - arena0; got != arenaLocks*rounds {
			t.Errorf("%s: %d arena lock acquisitions in %d rounds, want %d each", name, got, rounds, arenaLocks)
		}
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}

	before := facilityBytes(f)
	leg("Send+Receive", sid, 2, 0, func() {
		must(f.Send(0, sid, payload))
		_, err := f.Receive(1, rid, buf)
		must(err)
	})
	leg("Send+Receive FCFS+Receive BROADCAST", fan, 3, 0, func() {
		must(f.Send(0, fan, payload))
		_, err := f.Receive(2, fan, buf)
		must(err)
		_, err = f.Receive(3, fan, buf)
		must(err)
	})
	leg("SendLoan+Commit+ReceiveView+Release", sid, 3, 0, func() {
		ln, err := f.SendLoan(0, sid, 64)
		must(err)
		must(ln.Commit())
		v, err := f.ReceiveView(1, rid)
		must(err)
		v.Release()
	})
	leg("LoanBatch(4)+CommitAll+HarvestViews+ReleaseViews", sid, 3, 2, func() {
		lb, err := f.LoanBatch(0, sid, []int{64, 64, 64, 64})
		must(err)
		must(lb.CommitAll())
		vs, err := sel.HarvestViews(8)
		if err != nil || len(vs) != 4 {
			t.Fatalf("harvest: %d views, %v", len(vs), err)
		}
		ReleaseViews(vs)
	})
	if after := facilityBytes(f); !bytes.Equal(before, after) {
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("Facility byte %d changed under message traffic (first of the differing bytes)", i)
			}
		}
	}
	if st := f.Stats(); st.Sends != 7*(rounds+1) || st.Receives != 8*(rounds+1) {
		t.Fatalf("the traffic was not counted: %+v", st)
	}

	before = facilityBytes(f)
	ln, err := f.SendLoan(0, sid, 64)
	if err != nil {
		t.Fatal(err)
	}
	ln.CopyFrom(payload)
	ln.Abort()
	if err := f.Send(0, sid, payload); err != nil {
		t.Fatal(err)
	}
	v, err := f.ReceiveView(1, rid)
	if err != nil {
		t.Fatal(err)
	}
	v.CopyTo(buf)
	v.Release()
	after := facilityBytes(f)
	lo := unsafe.Offsetof(f.stats) + unsafe.Offsetof(f.stats.viewCopiesOut)
	hi := unsafe.Offsetof(f.stats) + unsafe.Offsetof(f.stats.unsentCopiesIn) + unsafe.Sizeof(f.stats.unsentCopiesIn)
	changed := 0
	for i := range before {
		if before[i] != after[i] {
			changed++
			if uintptr(i) < lo || uintptr(i) >= hi {
				t.Errorf("Facility byte %d changed under the copy escape hatches, outside their words [%d, %d)", i, lo, hi)
			}
		}
	}
	if changed != 2 {
		t.Errorf("the escape hatches changed %d bytes, want one in each of their two words", changed)
	}
}

// TestClosedLoopSkipsTheArena: after one warm-up round, a closed loop
// of Send + Receive on one circuit takes no arena lock. Each Receive's
// reclaim parks the message's one span in the circuit's recycle slot,
// and the next Send takes it back: 10 000 rounds, 10 000 slot reuses.
func TestClosedLoopSkipsTheArena(t *testing.T) {
	const rounds = 10000
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	sid, _ := f.OpenSend(0, "loop")
	rid, err := f.OpenReceive(1, "loop", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	payload, buf := make([]byte, 64), make([]byte, 64)
	round := func() {
		if err := f.Send(0, sid, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Receive(1, rid, buf); err != nil {
			t.Fatal(err)
		}
	}
	round()
	reuses0 := f.arena.Stats().SlotReuses
	locks0, _ := f.arena.LockStats()
	for range rounds {
		round()
	}
	locks1, _ := f.arena.LockStats()
	if got := locks1 - locks0; got != 0 {
		t.Errorf("%d arena lock acquisitions in %d rounds, want 0", got, rounds)
	}
	if got := f.arena.Stats().SlotReuses - reuses0; got != rounds {
		t.Errorf("%d slot reuses in %d rounds, want %d", got, rounds, rounds)
	}
}

// TestBatchedPlaneArenaLocks holds the batched zero-copy plane to what
// it amortises: a round of LoanBatch of 16 × 4 KiB, CommitAll,
// HarvestViews(64) and ReleaseViews takes the arena lock once to
// allocate the 16 messages and once to free them — at most 1/8 of a
// lock per message, against Send+Receive's 2 — copies no payload, and
// is counted as 16 batched loans and 16 harvested views.
func TestBatchedPlaneArenaLocks(t *testing.T) {
	const (
		rounds = 200
		batch  = 16
		size   = 4096
		msgs   = rounds * batch
	)
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 2, BlocksPerProcess: 2 * batch * size / 64})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	sid, _ := f.OpenSend(0, "batched")
	rid, err := f.OpenReceive(1, "batched", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := f.NewSelector(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	if err := sel.Add(rid); err != nil {
		t.Fatal(err)
	}
	ns := make([]int, batch)
	for i := range ns {
		ns[i] = size
	}
	arena0, _ := f.arena.LockStats()
	for r := 0; r < rounds; r++ {
		lb, err := f.LoanBatch(0, sid, ns)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			b, ok := lb.Bytes(i)
			if !ok {
				t.Fatalf("round %d: loan %d is not contiguous", r, i)
			}
			b[0], b[size-1] = byte(r), byte(i)
		}
		if err := lb.CommitAll(); err != nil {
			t.Fatal(err)
		}
		vs, err := sel.HarvestViews(64)
		if err != nil || len(vs) != batch {
			t.Fatalf("round %d: harvested %d views, %v; want %d", r, len(vs), err, batch)
		}
		for i, v := range vs {
			if b, ok := v.Bytes(); !ok || b[0] != byte(r) || b[size-1] != byte(i) {
				t.Fatalf("round %d: view %d shows the wrong payload", r, i)
			}
		}
		ReleaseViews(vs)
	}
	arena1, _ := f.arena.LockStats()
	locks := arena1 - arena0
	if got, want := locks, uint64(2*rounds); got != want {
		t.Errorf("%d arena lock acquisitions for %d rounds, want 2 a round", got, rounds)
	}
	if perMsg := float64(locks) / msgs; perMsg > 1.0/8 {
		t.Errorf("%.3f arena locks per message, want at most 1/8", perMsg)
	}
	st := f.Stats()
	if st.PayloadCopiesIn != 0 || st.PayloadCopiesOut != 0 {
		t.Errorf("payload copies in/out %d/%d, want 0/0", st.PayloadCopiesIn, st.PayloadCopiesOut)
	}
	if st.LoanBatchSends != msgs || st.HarvestedViews != msgs {
		t.Errorf("LoanBatchSends %d, HarvestedViews %d; want %d each", st.LoanBatchSends, st.HarvestedViews, msgs)
	}
}
