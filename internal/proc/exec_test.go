//go:build unix

package proc

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// TestMain doubles the test binary as the spawn target: when re-exec'd
// with MPF_PROC_HELPER set it behaves as a child process instead of a
// test runner — the standard trick for exercising real process spawn
// inside go test.
func TestMain(m *testing.M) {
	switch os.Getenv("MPF_PROC_HELPER") {
	case "":
		os.Exit(m.Run())
	case "echo":
		conn, idx, err := ParentConn()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		buf := make([]byte, 32)
		n, err := conn.Read(buf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if _, err := conn.Write([]byte(fmt.Sprintf("child %d got %s", idx, buf[:n]))); err != nil {
			os.Exit(2)
		}
		os.Exit(0)
	case "hang":
		select {}
	case "die":
		os.Exit(7)
	default:
		os.Exit(3)
	}
}

func TestExecGroupRoundTrip(t *testing.T) {
	g, err := StartGroup(3, os.Args[0], nil, []string{"MPF_PROC_HELPER=echo"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		ch := g.Child(i)
		if ch.Index != i {
			t.Fatalf("child %d carries index %d", i, ch.Index)
		}
		if _, err := ch.Conn.Write([]byte(fmt.Sprintf("ping-%d", i))); err != nil {
			t.Fatalf("write to child %d: %v", i, err)
		}
	}
	for i := 0; i < g.N(); i++ {
		buf := make([]byte, 64)
		g.Child(i).Conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, err := g.Child(i).Conn.Read(buf)
		if err != nil {
			t.Fatalf("read from child %d: %v", i, err)
		}
		want := fmt.Sprintf("child %d got ping-%d", i, i)
		if string(buf[:n]) != want {
			t.Fatalf("child %d replied %q, want %q", i, buf[:n], want)
		}
	}
	if err := g.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestExecGroupWaitTimeout(t *testing.T) {
	g, err := StartGroup(1, os.Args[0], nil, []string{"MPF_PROC_HELPER=hang"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := g.Wait(200 * time.Millisecond); err == nil {
		t.Fatal("Wait returned nil for a hung child")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Wait did not enforce its deadline")
	}
	// The kill escalation must actually reap the child...
	select {
	case <-g.Child(0).Done():
	case <-time.After(5 * time.Second):
		t.Fatal("killed child never reaped")
	}
	// ...and close the handshake socket, so nothing can keep talking on
	// the channel of a torn-down group.
	if _, err := g.Child(0).Conn.Write([]byte("x")); err == nil {
		t.Fatal("handshake socket still open after kill escalation")
	}
}

// TestExecGroupDeathWatchAndRespawn exercises the crash-robustness
// plumbing: a child that exits nonzero is observed by WatchDeaths, a
// replacement is respawned into its rank, and the replacement works.
func TestExecGroupDeathWatchAndRespawn(t *testing.T) {
	g, err := StartGroupEnv(2, os.Args[0], nil, func(i int) []string {
		if i == 0 {
			return []string{"MPF_PROC_HELPER=die"}
		}
		return []string{"MPF_PROC_HELPER=echo"}
	})
	if err != nil {
		t.Fatal(err)
	}
	deaths := make(chan *Child, 4)
	stop := g.WatchDeaths(func(ch *Child) { deaths <- ch })
	defer stop()

	select {
	case ch := <-deaths:
		if ch.Index != 0 {
			t.Fatalf("death of child %d, want 0", ch.Index)
		}
		if ch.Err() == nil {
			t.Fatal("crashed child reported clean exit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("death never observed")
	}
	if g.Child(1).Exited() {
		t.Fatal("live child reads exited")
	}

	// Respawn rank 0 as an echo child and run a round trip through it.
	nc, err := g.Respawn(0, []string{"MPF_PROC_HELPER=echo"})
	if err != nil {
		t.Fatal(err)
	}
	if g.Child(0) != nc || nc.Index != 0 {
		t.Fatal("respawned child not installed at its rank")
	}
	if _, err := nc.Conn.Write([]byte("again")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	nc.Conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	n, err := nc.Conn.Read(buf)
	if err != nil || string(buf[:n]) != "child 0 got again" {
		t.Fatalf("respawned round trip: %q, %v", buf[:n], err)
	}
	// Unblock the untouched echo child at rank 1 so the group joins.
	if _, err := g.Child(1).Conn.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	g.Child(1).Conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := g.Child(1).Conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if err := g.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !nc.Exited() {
		t.Fatal("joined child does not read exited")
	}
}

func TestExecGroupSpawnFailure(t *testing.T) {
	if _, err := StartGroup(2, "/nonexistent/mpf-no-such-binary", nil, nil); err == nil {
		t.Fatal("spawn of a nonexistent binary succeeded")
	}
}
