package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestReceiveAnyImmediate(t *testing.T) {
	f := newFac(t)
	s1, _ := f.OpenSend(0, "a")
	_, _ = f.OpenSend(0, "b")
	ra, _ := f.OpenReceive(1, "a", FCFS)
	rb, _ := f.OpenReceive(1, "b", FCFS)
	f.Send(0, s1, []byte("on a"))

	buf := make([]byte, 16)
	idx, n, err := f.ReceiveAny(1, []ID{ra, rb}, buf)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 || string(buf[:n]) != "on a" {
		t.Fatalf("idx=%d buf=%q", idx, buf[:n])
	}
}

func TestReceiveAnyBlocksThenWakes(t *testing.T) {
	f := newFac(t)
	f.OpenSend(0, "a")
	sb, _ := f.OpenSend(0, "b")
	ra, _ := f.OpenReceive(1, "a", FCFS)
	rb, _ := f.OpenReceive(1, "b", Broadcast)

	type result struct {
		idx, n int
		err    error
	}
	got := make(chan result, 1)
	go func() {
		buf := make([]byte, 8)
		idx, n, err := f.ReceiveAny(1, []ID{ra, rb}, buf)
		got <- result{idx, n, err}
	}()
	select {
	case r := <-got:
		t.Fatalf("returned early: %+v", r)
	case <-time.After(30 * time.Millisecond):
	}
	f.Send(0, sb, []byte("late"))
	select {
	case r := <-got:
		if r.err != nil || r.idx != 1 || r.n != 4 {
			t.Fatalf("%+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReceiveAny never woke")
	}
}

func TestReceiveAnyRoundRobinFairness(t *testing.T) {
	f := newFac(t)
	sa, _ := f.OpenSend(0, "a")
	sb, _ := f.OpenSend(0, "b")
	ra, _ := f.OpenReceive(1, "a", FCFS)
	rb, _ := f.OpenReceive(1, "b", FCFS)
	// Keep both circuits saturated; deliveries must alternate.
	for i := 0; i < 10; i++ {
		f.Send(0, sa, []byte{0xA})
		f.Send(0, sb, []byte{0xB})
	}
	buf := make([]byte, 1)
	var fromA, fromB int
	for i := 0; i < 20; i++ {
		idx, _, err := f.ReceiveAny(1, []ID{ra, rb}, buf)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 0 {
			fromA++
		} else {
			fromB++
		}
	}
	if fromA != 10 || fromB != 10 {
		t.Fatalf("deliveries a=%d b=%d, want 10/10 (starvation)", fromA, fromB)
	}
}

func TestReceiveAnyValidation(t *testing.T) {
	f := newFac(t)
	sid, _ := f.OpenSend(0, "v")
	rid, _ := f.OpenReceive(1, "v", FCFS)
	buf := make([]byte, 4)
	if _, _, err := f.ReceiveAny(1, nil, buf); !errors.Is(err, ErrBadLNVC) {
		t.Fatalf("empty ids: %v", err)
	}
	if _, _, err := f.ReceiveAny(-1, []ID{rid}, buf); !errors.Is(err, ErrBadProcess) {
		t.Fatalf("bad pid: %v", err)
	}
	if _, _, err := f.ReceiveAny(1, []ID{99}, buf); !errors.Is(err, ErrBadLNVC) {
		t.Fatalf("bad id: %v", err)
	}
	// pid 0 has only a send connection on "v".
	if _, _, err := f.ReceiveAny(0, []ID{sid}, buf); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("not connected: %v", err)
	}
}

func TestReceiveAnyDeadline(t *testing.T) {
	var last Event // every primitive below is called from this goroutine
	f, err := Init(Config{MaxLNVCs: 16, MaxProcesses: 20, Tracer: tracerFn(func(ev Event) { last = ev })})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Shutdown)
	f.OpenSend(0, "d")
	rid, _ := f.OpenReceive(1, "d", FCFS)
	start := time.Now()
	_, _, err = f.ReceiveAnyDeadline(1, []ID{rid}, make([]byte, 1), 40*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("returned before deadline")
	}
	// A failed ReceiveAny is traced like any other failed primitive: a
	// message_receive by this process, on no circuit, with the error.
	if last.Op != OpReceive || last.PID != 1 || last.LNVC != -1 || !errors.Is(last.Err, ErrTimeout) {
		t.Fatalf("timeout traced as %+v, want a message_receive by process 1 on circuit -1 with ErrTimeout", last)
	}
	if _, _, err := f.ReceiveAnyDeadline(1, []ID{rid}, nil, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("zero deadline: %v", err)
	}
}

func TestReceiveAnyShutdown(t *testing.T) {
	f := newFac(t)
	f.OpenSend(0, "s")
	rid, _ := f.OpenReceive(1, "s", FCFS)
	errc := make(chan error, 1)
	go func() {
		_, _, err := f.ReceiveAny(1, []ID{rid}, make([]byte, 1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	f.Shutdown()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrShutdown) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ReceiveAny ignored Shutdown")
	}
}

func TestReceiveAnyManyWaitersExactlyOnce(t *testing.T) {
	// Several processes multiplexing over the same pair of FCFS
	// circuits: every message delivered exactly once.
	f, err := Init(Config{MaxLNVCs: 4, MaxProcesses: 8, BlocksPerProcess: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Shutdown()
	sa, _ := f.OpenSend(0, "ma")
	sb, _ := f.OpenSend(0, "mb")
	const nRecv, perCircuit = 3, 120
	const want = 2 * perCircuit
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	dup := false
	seen := make(map[[2]byte]int)
	for r := 1; r <= nRecv; r++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			ra, err := f.OpenReceive(pid, "ma", FCFS)
			if err != nil {
				t.Error(err)
				return
			}
			rb, err := f.OpenReceive(pid, "mb", FCFS)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 2)
			for {
				_, n, err := f.ReceiveAnyDeadline(pid, []ID{ra, rb}, buf, 20*time.Millisecond)
				if errors.Is(err, ErrTimeout) {
					mu.Lock()
					done := total >= want
					mu.Unlock()
					if done {
						return
					}
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if n != 2 {
					t.Errorf("short message: %d bytes", n)
					return
				}
				mu.Lock()
				total++
				seen[[2]byte{buf[0], buf[1]}]++
				if seen[[2]byte{buf[0], buf[1]}] > 1 {
					dup = true
				}
				mu.Unlock()
			}
		}(r)
	}
	for i := 0; i < perCircuit; i++ {
		if err := f.Send(0, sa, []byte{byte(i), 0xA}); err != nil {
			t.Fatal(err)
		}
		if err := f.Send(0, sb, []byte{byte(i), 0xB}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if total != want {
		t.Fatalf("delivered %d, want %d", total, want)
	}
	if dup {
		t.Fatal("a message was delivered twice")
	}
}
