package proc

// Real OS process groups. Group runs the paper's "group of Unix
// processes" as goroutines — the right default for a Go port — but the
// cross-process arena needs the genuine article: children with their
// own address spaces, connected to the parent only by an inherited
// unix-domain socket over which the segment fd and attach handshake
// travel (shm.SendSegment/RecvSegment). ExecGroup supplies that:
// StartGroup forks+execs N children, each with its half of a
// socketpair installed as ChildConnFd, and Wait joins them with a
// deadline and a kill escalation — a child that wedges cannot hang CI.
//
// Crash tolerance rides on the same plumbing: every child's exit is
// observed by a dedicated Wait goroutine and published through a done
// channel, so a reaper (WatchDeaths) learns about a crash the moment
// the kernel does, without stealing the join from ExecGroup.Wait.
// Respawn replaces a dead child in place — same binary, same rank,
// fresh socketpair — which is what the mpf supervisor builds restart
// policies out of. The exits Wait observes are the only liveness signal
// the package offers: a pid probe cannot tell a dead child from a
// recycled pid.
//
// The exec machinery is portable Go (os/exec, net.FileConn); only the
// segment that usually travels over the socket is Linux-gated. On
// platforms without a shared segment backend an ExecGroup still works
// as a plain process harness.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// ChildConnFd is the file descriptor number at which every spawned
// child inherits its parent socket (fd 3: the first ExtraFiles slot).
const ChildConnFd = 3

// Child is one spawned OS process and the parent's socket to it.
type Child struct {
	// Index is the child's rank in the group (0..N-1). A respawned
	// replacement keeps its predecessor's rank.
	Index int
	// Cmd is the underlying process handle.
	Cmd *exec.Cmd
	// Conn is the parent's end of the handshake socket.
	Conn *net.UnixConn

	done chan struct{} // closed once Cmd.Wait returned
	err  error         // Cmd.Wait's result; valid after done

	connOnce sync.Once
}

// Done is closed once the child's process has been joined — the death
// signal reapers select on.
func (ch *Child) Done() <-chan struct{} { return ch.done }

// Err returns the child's exit error (nil for clean exit). Only valid
// after Done is closed.
func (ch *Child) Err() error { return ch.err }

// Exited reports whether the child has been joined.
func (ch *Child) Exited() bool {
	select {
	case <-ch.done:
		return true
	default:
		return false
	}
}

// Pid returns the child's OS pid (0 if the process never started).
func (ch *Child) Pid() int {
	if ch.Cmd.Process == nil {
		return 0
	}
	return ch.Cmd.Process.Pid
}

// CloseConn closes the parent's handshake socket to this child,
// exactly once — safe to call from Wait, Kill and reapers
// concurrently.
func (ch *Child) CloseConn() {
	ch.connOnce.Do(func() { ch.Conn.Close() })
}

// ExecGroup is a set of exec-spawned children sharing a parent.
type ExecGroup struct {
	mu       sync.Mutex
	children []*Child

	// Respawn needs the original spawn recipe.
	bin  string
	args []string
	env  func(i int) []string
}

// socketpairConn builds a connected pair: a *net.UnixConn for the
// parent and an *os.File for the child's ExtraFiles slot.
func socketpairConn() (*net.UnixConn, *os.File, error) {
	parentF, childF, err := unixSocketpair()
	if err != nil {
		return nil, nil, err
	}
	c, err := net.FileConn(parentF)
	parentF.Close() // FileConn dup'ed it
	if err != nil {
		childF.Close()
		return nil, nil, err
	}
	uc, ok := c.(*net.UnixConn)
	if !ok {
		c.Close()
		childF.Close()
		return nil, nil, fmt.Errorf("proc: socketpair conn is %T, want *net.UnixConn", c)
	}
	return uc, childF, nil
}

// StartGroup spawns n children running bin with the given args. Each
// child receives its rank via the MPF_PROC_INDEX environment variable
// and its handshake socket at ChildConnFd. Children inherit the
// parent's environment plus extraEnv, and their stderr; stdout is
// passed through too, so demo children can narrate. On any spawn
// failure the already-started children are killed.
func StartGroup(n int, bin string, args []string, extraEnv []string) (*ExecGroup, error) {
	return StartGroupEnv(n, bin, args, func(int) []string { return extraEnv })
}

// StartGroupEnv is StartGroup with per-child environment: envFor(i) is
// appended to child i's inherited environment. This is how a chaos
// harness arms fault points in some children and not others.
func StartGroupEnv(n int, bin string, args []string, envFor func(i int) []string) (*ExecGroup, error) {
	if n <= 0 {
		return nil, fmt.Errorf("proc: exec group size %d", n)
	}
	if envFor == nil {
		envFor = func(int) []string { return nil }
	}
	g := &ExecGroup{bin: bin, args: args, env: envFor}
	for i := 0; i < n; i++ {
		ch, err := g.spawn(i, envFor(i))
		if err != nil {
			g.Kill()
			return nil, err
		}
		g.children = append(g.children, ch)
	}
	return g, nil
}

// spawn starts one child at rank i with the given extra environment
// and pins it to CPU i mod NumCPU, best-effort (pin), so a parent
// exchanging messages with it stops chasing it across cores.
func (g *ExecGroup) spawn(i int, extraEnv []string) (*Child, error) {
	conn, childF, err := socketpairConn()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(g.bin, g.args...)
	cmd.Env = append(append(os.Environ(), extraEnv...), fmt.Sprintf("MPF_PROC_INDEX=%d", i))
	cmd.ExtraFiles = []*os.File{childF}
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		conn.Close()
		childF.Close()
		return nil, fmt.Errorf("proc: spawning child %d: %w", i, err)
	}
	childF.Close()              // child holds its own copy now
	_ = pin(cmd.Process.Pid, i) // refused: the child runs unpinned
	ch := &Child{Index: i, Cmd: cmd, Conn: conn, done: make(chan struct{})}
	go func() {
		ch.err = cmd.Wait()
		close(ch.done)
	}()
	return ch, nil
}

// Respawn replaces child i — which must have exited — with a fresh
// process of the same binary and rank, on a fresh socketpair, with
// extraEnv overriding the group's per-child environment (nil keeps
// it). Returns the new child.
func (g *ExecGroup) Respawn(i int, extraEnv []string) (*Child, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 || i >= len(g.children) {
		return nil, fmt.Errorf("proc: respawn of child %d in group of %d", i, len(g.children))
	}
	old := g.children[i]
	if !old.Exited() {
		return nil, fmt.Errorf("proc: respawn of child %d which is still running (pid %d)", i, old.Pid())
	}
	old.CloseConn()
	env := extraEnv
	if env == nil {
		env = g.env(i)
	}
	ch, err := g.spawn(i, env)
	if err != nil {
		return nil, err
	}
	g.children[i] = ch
	return ch, nil
}

// N returns the group size.
func (g *ExecGroup) N() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.children)
}

// Child returns the i'th child (the current incarnation, if respawned).
func (g *ExecGroup) Child(i int) *Child {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.children[i]
}

// WatchDeaths starts a watcher that invokes fn once for every child
// death it observes — including deaths of respawned replacements —
// until the returned stop function is called. fn runs on the watcher
// goroutine; it must not block for long.
func (g *ExecGroup) WatchDeaths(fn func(*Child)) (stop func()) {
	stopC := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := make(map[*Child]bool)
		for {
			// Snapshot the current incarnations, then wait for any
			// unseen one to die. Polling the snapshot (rather than one
			// goroutine per child) keeps respawn races simple: a
			// replacement shows up in the next snapshot.
			g.mu.Lock()
			kids := append([]*Child(nil), g.children...)
			g.mu.Unlock()
			fired := false
			for _, ch := range kids {
				if !seen[ch] && ch.Exited() {
					seen[ch] = true
					fired = true
					fn(ch)
				}
			}
			if fired {
				continue
			}
			select {
			case <-stopC:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	return func() {
		close(stopC)
		wg.Wait()
	}
}

// ParentConn returns this process's end of the handshake socket when
// running *as* a spawned child (the counterpart of StartGroup's
// ExtraFiles plumbing), plus the child's group index.
func ParentConn() (*net.UnixConn, int, error) {
	idx := -1
	if s := os.Getenv("MPF_PROC_INDEX"); s != "" {
		fmt.Sscanf(s, "%d", &idx)
	}
	f := os.NewFile(uintptr(ChildConnFd), "mpf-parent-conn")
	if f == nil {
		return nil, idx, fmt.Errorf("proc: no inherited socket at fd %d", ChildConnFd)
	}
	c, err := net.FileConn(f)
	f.Close()
	if err != nil {
		return nil, idx, fmt.Errorf("proc: inherited fd %d is not a socket: %w", ChildConnFd, err)
	}
	uc, ok := c.(*net.UnixConn)
	if !ok {
		c.Close()
		return nil, idx, fmt.Errorf("proc: inherited socket is %T, want unix", c)
	}
	return uc, idx, nil
}

// Wait joins every child, enforcing the deadline: children still
// running when it expires are killed — processes terminated AND their
// handshake sockets closed, so a wedged child can neither run on nor
// hold the handshake channel open past teardown — and reported as an
// error. Each child's socket is also closed as it joins cleanly. The
// first failing child (by index) determines the returned error.
func (g *ExecGroup) Wait(timeout time.Duration) error {
	deadline := time.After(timeout)
	g.mu.Lock()
	kids := append([]*Child(nil), g.children...)
	g.mu.Unlock()
	errs := make([]error, len(kids))
	for i, ch := range kids {
		select {
		case <-ch.done:
			errs[i] = ch.err
			ch.CloseConn()
		case <-deadline:
			g.Kill()
			return fmt.Errorf("proc: child %d still running after %v (group killed)", i, timeout)
		}
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("proc: child %d: %w", i, err)
		}
	}
	return nil
}

// Kill terminates every child that is still running and closes the
// parent sockets.
func (g *ExecGroup) Kill() {
	g.mu.Lock()
	kids := append([]*Child(nil), g.children...)
	g.mu.Unlock()
	for _, ch := range kids {
		if ch.Cmd.Process != nil {
			ch.Cmd.Process.Kill()
		}
		ch.CloseConn()
	}
}
