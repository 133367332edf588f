package proc

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSpawnedChildIsPinned: every child ExecGroup starts, and every
// child Respawn puts in a dead one's place, runs on CPU i mod NumCPU.
func TestSpawnedChildIsPinned(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("one CPU: nothing to pin apart")
	}
	// A trial pin on a thread of our own, which exits with its goroutine
	// and takes the pin along: where the runner refuses it, the children
	// are refused too, and float by design.
	refused := make(chan error)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread dies with the goroutine
		err := pin(0, 0)
		if err == nil {
			err = pin(0, 1)
		}
		refused <- err
	}()
	if err := <-refused; err != nil {
		t.Skipf("sched_setaffinity refused: %v", err)
	}

	g, err := StartGroup(2, os.Args[0], nil, []string{"MPF_PROC_HELPER=hang"})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Kill()
	check := func(i int) {
		t.Helper()
		want := strconv.Itoa(i % runtime.NumCPU())
		if got := cpusAllowed(t, g.Child(i).Pid()); got != want {
			t.Errorf("child %d (pid %d) runs on CPUs %s, want %s", i, g.Child(i).Pid(), got, want)
		}
	}
	check(0)
	check(1)

	g.Child(0).Cmd.Process.Kill()
	select {
	case <-g.Child(0).Done():
	case <-time.After(10 * time.Second):
		t.Fatal("killed child never reaped")
	}
	if _, err := g.Respawn(0, nil); err != nil {
		t.Fatal(err)
	}
	check(0)
}

// cpusAllowed reads the Cpus_allowed_list line of a process's status:
// "3" for a process pinned to CPU 3, "0-7" for one free on eight.
func cpusAllowed(t *testing.T, pid int) string {
	t.Helper()
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(v)
		}
	}
	t.Fatalf("no Cpus_allowed_list in /proc/%d/status", pid)
	return ""
}
