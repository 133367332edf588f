package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// Concurrency stress tests and property-based tests of the delivery
// invariants. These run under -race in CI.

func TestConcurrentSendersSingleFCFSReceiver(t *testing.T) {
	f := newFac(t)
	const nSenders, perSender = 6, 200
	rid, _ := f.OpenReceive(0, "manyin", FCFS)
	var wg sync.WaitGroup
	for s := 1; s <= nSenders; s++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			sid, err := f.OpenSend(pid, "manyin")
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 8)
			for i := 0; i < perSender; i++ {
				binary.LittleEndian.PutUint32(buf[0:], uint32(pid))
				binary.LittleEndian.PutUint32(buf[4:], uint32(i))
				if err := f.Send(pid, sid, buf); err != nil {
					t.Error(err)
					return
				}
			}
			if err := f.CloseSend(pid, sid); err != nil {
				t.Error(err)
			}
		}(s)
	}

	// Per-sender streams must arrive in order (time-ordered FIFO), and
	// every message must arrive exactly once.
	lastSeen := make(map[uint32]int)
	buf := make([]byte, 8)
	for n := 0; n < nSenders*perSender; n++ {
		got, err := f.Receive(0, rid, buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != 8 {
			t.Fatalf("short message: %d bytes", got)
		}
		pid := binary.LittleEndian.Uint32(buf[0:])
		seq := int(binary.LittleEndian.Uint32(buf[4:]))
		if last, ok := lastSeen[pid]; ok && seq != last+1 {
			t.Fatalf("sender %d: message %d after %d", pid, seq, last)
		} else if !ok && seq != 0 {
			t.Fatalf("sender %d: first message is %d", pid, seq)
		}
		lastSeen[pid] = seq
	}
	wg.Wait()
	if ok, _ := f.CheckReceive(0, rid); ok {
		t.Fatal("extra messages after all senders finished")
	}
}

func TestConcurrentFCFSReceiversPartition(t *testing.T) {
	f := newFac(t)
	const nRecv, nMsgs = 5, 500
	sid, _ := f.OpenSend(0, "part")
	type rec struct {
		pid int
		val uint32
	}
	results := make(chan rec, nMsgs)
	var wg sync.WaitGroup
	for r := 1; r <= nRecv; r++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rid, err := f.OpenReceive(pid, "part", FCFS)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 4)
			for {
				n, err := f.Receive(pid, rid, buf)
				if err != nil {
					return // shutdown after drain
				}
				if n != 4 {
					t.Errorf("short read: %d", n)
					return
				}
				v := binary.LittleEndian.Uint32(buf)
				if v == ^uint32(0) { // poison: stop
					return
				}
				results <- rec{pid, v}
			}
		}(r)
	}
	buf := make([]byte, 4)
	for i := 0; i < nMsgs; i++ {
		binary.LittleEndian.PutUint32(buf, uint32(i))
		if err := f.Send(0, sid, buf); err != nil {
			t.Fatal(err)
		}
	}
	// One poison pill per receiver.
	binary.LittleEndian.PutUint32(buf, ^uint32(0))
	for r := 0; r < nRecv; r++ {
		f.Send(0, sid, buf)
	}
	wg.Wait()
	close(results)
	seen := make(map[uint32]bool)
	for r := range results {
		if seen[r.val] {
			t.Fatalf("message %d delivered twice", r.val)
		}
		seen[r.val] = true
	}
	if len(seen) != nMsgs {
		t.Fatalf("delivered %d distinct messages, want %d", len(seen), nMsgs)
	}
}

// TestArenaWakesPerPark: a sender outruns its FCFS receiver through an
// arena that holds two messages, so it parks on the third, and the
// receiver drains the queue only once the sender has parked — two or
// more frees per park. A park is woken once however many frees land
// before the woken sender gets back to the free-pool lock, so the
// arena's Wakes never exceeds its parks, AllocBlocks.
func TestArenaWakesPerPark(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 2, MaxProcesses: 2, BlockSize: 16, BlocksPerProcess: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	a := f.Arena()
	size := a.NumBlocks() / 2 * a.PayloadSize() // a demand of half the region
	sid, err := f.OpenSend(0, "wakes")
	if err != nil {
		t.Fatal(err)
	}
	rid, err := f.OpenReceive(1, "wakes", FCFS)
	if err != nil {
		t.Fatal(err)
	}
	const nMsgs = 100
	parks, done := a.Stats().AllocBlocks, false
	sent := make(chan error, 1)
	go func() {
		buf := make([]byte, size)
		for i := 0; i < nMsgs; i++ {
			if err := f.Send(0, sid, buf); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	buf := make([]byte, size)
	for got := 0; got < nMsgs; {
		// Let the sender fill the arena and park (or finish) first.
		for !done {
			if p := a.Stats().AllocBlocks; p > parks {
				parks = p
				break
			}
			select {
			case err := <-sent:
				if err != nil {
					t.Fatal(err)
				}
				done = true
			case <-time.After(100 * time.Microsecond):
			}
		}
		for {
			_, ok, err := f.TryReceive(1, rid, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got++
		}
	}
	st := a.Stats()
	if st.AllocBlocks == 0 {
		t.Fatal("the sender never parked")
	}
	if st.Wakes > st.AllocBlocks {
		t.Errorf("%d wakes for %d parks: a park was woken more than once", st.Wakes, st.AllocBlocks)
	}
	t.Logf("%d parks, %d wakes for %d messages", st.AllocBlocks, st.Wakes, nMsgs)
}

func TestConcurrentBroadcastReceiveCompleteStreams(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 16, BlocksPerProcess: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	const nRecv, nMsgs = 6, 300
	sid, _ := f.OpenSend(0, "bcast")
	rids := make([]ID, nRecv)
	for r := 0; r < nRecv; r++ {
		rids[r], err = f.OpenReceive(1+r, "bcast", Broadcast)
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < nRecv; r++ {
		wg.Add(1)
		go func(pid int, rid ID) {
			defer wg.Done()
			buf := make([]byte, 4)
			for i := 0; i < nMsgs; i++ {
				n, err := f.Receive(pid, rid, buf)
				if err != nil || n != 4 {
					t.Errorf("receiver %d msg %d: n=%d err=%v", pid, i, n, err)
					return
				}
				if got := binary.LittleEndian.Uint32(buf); got != uint32(i) {
					t.Errorf("receiver %d: msg %d got %d (stream gap or dup)", pid, i, got)
					return
				}
			}
		}(1+r, rids[r])
	}
	buf := make([]byte, 4)
	for i := 0; i < nMsgs; i++ {
		binary.LittleEndian.PutUint32(buf, uint32(i))
		if err := f.Send(0, sid, buf); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
		t.Fatalf("blocks leaked: %d free of %d", free, total)
	}
}

func TestConcurrentOpenCloseChurn(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 32, MaxProcesses: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(pid)))
			buf := make([]byte, 16)
			for i := 0; i < 300; i++ {
				name := fmt.Sprintf("churn-%d", rng.Intn(4))
				sid, err := f.OpenSend(pid, name)
				if err != nil {
					continue // table momentarily full is fine
				}
				f.Send(pid, sid, buf[:rng.Intn(16)])
				if rng.Intn(2) == 0 {
					rid, err := f.OpenReceive(pid, name, Protocol(rng.Intn(2)))
					if err == nil {
						f.CheckReceive(pid, rid)
						f.CloseReceive(pid, rid)
					}
				}
				if err := f.CloseSend(pid, sid); err != nil {
					t.Errorf("close: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	// All circuits fully closed: table empty, everything recycled.
	if n := f.LNVCCount(); n != 0 {
		t.Fatalf("%d LNVCs leaked", n)
	}
	if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
		t.Fatalf("blocks leaked: %d free of %d", free, total)
	}
	if err := f.Arena().CheckFreeList(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedTrafficRandomPayloads(t *testing.T) {
	// Full-mesh style stress: every process sends random payloads to a
	// shared circuit and one broadcast receiver verifies content
	// integrity via checksums.
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 16, BlocksPerProcess: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	const nSenders, perSender = 4, 100
	rid, _ := f.OpenReceive(0, "mesh", FCFS)

	checksum := func(b []byte) byte {
		var s byte
		for _, x := range b {
			s ^= x
		}
		return s
	}
	var wg sync.WaitGroup
	for s := 1; s <= nSenders; s++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			sid, _ := f.OpenSend(pid, "mesh")
			rng := rand.New(rand.NewSource(int64(pid) * 77))
			for i := 0; i < perSender; i++ {
				payload := make([]byte, 2+rng.Intn(300))
				rng.Read(payload[2:])
				payload[0] = byte(len(payload))
				payload[1] = checksum(payload[2:])
				if err := f.Send(pid, sid, payload); err != nil {
					t.Error(err)
					return
				}
			}
			f.CloseSend(pid, sid)
		}(s)
	}
	buf := make([]byte, 512)
	for i := 0; i < nSenders*perSender; i++ {
		n, err := f.Receive(0, rid, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n < 2 || checksum(buf[2:n]) != buf[1] {
			t.Fatalf("message %d corrupted (n=%d)", i, n)
		}
	}
	wg.Wait()
}

// Property: for any sequence of sends with arbitrary payload sizes, a
// single FCFS receiver sees exactly the sent sequence.
func TestQuickFIFODelivery(t *testing.T) {
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 4, BlocksPerProcess: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	prop := func(payloads [][]byte) bool {
		if len(payloads) > 64 {
			payloads = payloads[:64]
		}
		for i := range payloads {
			if len(payloads[i]) > 1024 {
				payloads[i] = payloads[i][:1024]
			}
		}
		sid, err := f.OpenSend(0, "q")
		if err != nil {
			return false
		}
		rid, err := f.OpenReceive(1, "q", FCFS)
		if err != nil {
			return false
		}
		ok := true
		for _, p := range payloads {
			if err := f.Send(0, sid, p); err != nil {
				ok = false
				break
			}
		}
		buf := make([]byte, 1024)
		for _, p := range payloads {
			if !ok {
				break
			}
			n, err := f.Receive(1, rid, buf)
			if err != nil || n != len(p) || !bytes.Equal(buf[:n], p) {
				ok = false
			}
		}
		f.CloseSend(0, sid)
		f.CloseReceive(1, rid)
		return ok && f.LNVCCount() == 0 && f.Arena().FreeBlocks() == f.Arena().NumBlocks()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: under any receiver mix (FCFS and broadcast counts) and any
// message count, conservation holds: each message is received by every
// broadcast receiver exactly once and by exactly one FCFS receiver
// (when any FCFS receiver exists); afterwards nothing leaks.
func TestQuickDeliveryConservation(t *testing.T) {
	prop := func(nFCFSRaw, nBcastRaw, nMsgsRaw uint8) bool {
		nFCFS := int(nFCFSRaw % 4)
		nBcast := int(nBcastRaw % 4)
		nMsgs := int(nMsgsRaw%32) + 1
		if nFCFS+nBcast == 0 {
			nFCFS = 1
		}
		f, err := Init(Config{MaxLNVCs: 2, MaxProcesses: 10, BlocksPerProcess: 512})
		if err != nil {
			return false
		}
		defer f.Shutdown()
		sid, _ := f.OpenSend(0, "c")
		pid := 1
		fids := make([]ID, nFCFS)
		fpids := make([]int, nFCFS)
		for i := range fids {
			fids[i], _ = f.OpenReceive(pid, "c", FCFS)
			fpids[i] = pid
			pid++
		}
		bids := make([]ID, nBcast)
		bpids := make([]int, nBcast)
		for i := range bids {
			bids[i], _ = f.OpenReceive(pid, "c", Broadcast)
			bpids[i] = pid
			pid++
		}
		for i := 0; i < nMsgs; i++ {
			if err := f.Send(0, sid, []byte{byte(i)}); err != nil {
				return false
			}
		}
		buf := make([]byte, 1)
		// Broadcast receivers drain their complete streams.
		for i, rid := range bids {
			for m := 0; m < nMsgs; m++ {
				n, err := f.Receive(bpids[i], rid, buf)
				if err != nil || n != 1 || buf[0] != byte(m) {
					return false
				}
			}
		}
		// FCFS receivers jointly drain the stream exactly once.
		if nFCFS > 0 {
			seen := make(map[byte]bool)
			for m := 0; m < nMsgs; m++ {
				i := m % nFCFS
				n, err := f.Receive(fpids[i], fids[i], buf)
				if err != nil || n != 1 || seen[buf[0]] {
					return false
				}
				seen[buf[0]] = true
			}
			if len(seen) != nMsgs {
				return false
			}
		}
		info, _ := f.LNVCInfo(sid)
		if info.QueuedMsgs != 0 {
			return false
		}
		return f.Arena().FreeBlocks() == f.Arena().NumBlocks()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolString(t *testing.T) {
	if FCFS.String() != "FCFS" || Broadcast.String() != "BROADCAST" {
		t.Fatalf("%v %v", FCFS, Broadcast)
	}
	if Protocol(7).String() == "" {
		t.Fatal("unknown protocol has empty string")
	}
	if OpSend.String() != "message_send" || Op(200).String() != "op?" {
		t.Fatal("op names wrong")
	}
}
