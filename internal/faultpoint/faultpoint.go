// Package faultpoint provides named, runtime-armed fault injection
// points for crash-robustness testing. A fault point is a call site —
// faultpoint.Hit("child-attach") — placed at a protocol step whose
// failure the system must tolerate. With nothing armed the call is a
// single atomic bool load and a return: cheap enough to leave compiled
// into production paths permanently, so the code CI crashes is exactly
// the code users run.
//
// Points are armed per process via Set/Enable — typically from the
// MPF_FAULTPOINTS environment variable, which is how a chaos harness
// arms crash points in some children of an exec group and not others:
//
//	MPF_FAULTPOINTS=child-attach:crash         crash on first hit
//	MPF_FAULTPOINTS=child-ack:crash@40         crash on the 40th hit
//	MPF_FAULTPOINTS=child-fill:delay=5ms       sleep 5ms on every hit
//	MPF_FAULTPOINTS=a:crash@3,b:delay=1ms      several points
//
// A crash is os.Exit(out-of-band code 86), not a panic: no deferred
// cleanup, no done echo, no unmap — the closest a test can get to a real
// SIGKILL'd peer while still being triggerable at an exact protocol
// step.
package faultpoint

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CrashExitCode is the exit status of a process taken down by an armed
// crash point — distinct from any real error path, so harnesses can
// assert the crash they injected is the crash that happened.
const CrashExitCode = 86

// EnvVar is the environment variable EnableFromEnv reads.
const EnvVar = "MPF_FAULTPOINTS"

// armed is the global kill switch: false means no point anywhere is
// armed and Hit returns after one atomic load. It is only ever set
// true while reg holds at least one point.
var armed atomic.Bool

var (
	regMu sync.Mutex
	reg   map[string]*point
)

type point struct {
	// crash: take the process down on the hitN'th hit (1-based).
	crash bool
	hitN  uint64
	// delay: sleep this long on every hit.
	delay time.Duration

	hits atomic.Uint64
}

// Hit marks the named fault point as reached. Disarmed (the global
// fast path), it costs one atomic load. Armed, it counts the hit and
// performs the point's action: sleep for delay points, os.Exit for
// crash points whose hit count was reached.
func Hit(name string) {
	if !armed.Load() {
		return
	}
	hitSlow(name)
}

func hitSlow(name string) {
	regMu.Lock()
	p := reg[name]
	regMu.Unlock()
	if p == nil {
		return
	}
	n := p.hits.Add(1)
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if p.crash && n >= p.hitN {
		fmt.Fprintf(os.Stderr, "faultpoint: crashing at %q (hit %d)\n", name, n)
		os.Exit(CrashExitCode)
	}
}

// Hits returns how many times the named point has been reached since
// it was armed (0 if never armed).
func Hits(name string) uint64 {
	regMu.Lock()
	p := reg[name]
	regMu.Unlock()
	if p == nil {
		return 0
	}
	return p.hits.Load()
}

// Enable arms a crash point: the process exits (CrashExitCode) the
// n'th time Hit(name) runs. n < 1 means the first hit.
func Enable(name string, n uint64) {
	if n < 1 {
		n = 1
	}
	install(name, &point{crash: true, hitN: n})
}

// EnableDelay arms a delay point: every Hit(name) sleeps d.
func EnableDelay(name string, d time.Duration) {
	install(name, &point{delay: d})
}

func install(name string, p *point) {
	regMu.Lock()
	if reg == nil {
		reg = make(map[string]*point)
	}
	reg[name] = p
	regMu.Unlock()
	armed.Store(true)
}

// Reset disarms every point and restores the zero-cost fast path.
func Reset() {
	regMu.Lock()
	reg = nil
	regMu.Unlock()
	armed.Store(false)
}

// Set arms points from a spec string — the MPF_FAULTPOINTS syntax:
// comma-separated name:action items, where action is "crash",
// "crash@N" (crash on the N'th hit) or "delay=DUR" (time.Duration
// syntax). An empty spec arms nothing.
func Set(spec string) error {
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, action, ok := strings.Cut(item, ":")
		if !ok || name == "" {
			return fmt.Errorf("faultpoint: bad spec item %q (want name:action)", item)
		}
		switch {
		case action == "crash":
			Enable(name, 1)
		case strings.HasPrefix(action, "crash@"):
			var n uint64
			if _, err := fmt.Sscanf(action, "crash@%d", &n); err != nil || n < 1 {
				return fmt.Errorf("faultpoint: bad crash count in %q", item)
			}
			Enable(name, n)
		case strings.HasPrefix(action, "delay="):
			d, err := time.ParseDuration(action[len("delay="):])
			if err != nil || d < 0 {
				return fmt.Errorf("faultpoint: bad delay in %q", item)
			}
			EnableDelay(name, d)
		default:
			return fmt.Errorf("faultpoint: unknown action in %q", item)
		}
	}
	return nil
}

// EnableFromEnv arms points from the MPF_FAULTPOINTS environment
// variable — the first call every chaos-capable child process makes.
// An unset or empty variable arms nothing and keeps the fast path.
func EnableFromEnv() error {
	return Set(os.Getenv(EnvVar))
}
