package bench

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/mpf"
)

// Selector-scaling benchmark. The pre-selector ReceiveAny slept on one
// facility-wide activity channel that every Send pulsed: W parked event
// loops meant W wakeups per message, W-1 of them spurious, each
// rescanning every registered circuit — the thundering herd (measured
// once, at ~16x the wakeups of what replaced it, and since deleted:
// DESIGN.md §10). The per-circuit waiter lists wake only the loop whose
// circuit the message landed on. This benchmark parks several
// multiplexed consumers, drives traffic at exactly one of them, and
// reads the facility's MuxWakeups/MuxSpurious counters to hold the two
// schemes built on the waiter lists to that: about one wakeup per
// message, none of them spurious, however many bystanders are parked.

// MuxMode selects the multiplexing scheme a herd run uses.
type MuxMode uint8

const (
	// MuxSelector parks each consumer on an mpf.Selector.
	MuxSelector MuxMode = iota
	// MuxAnyWaiters parks each consumer in ReceiveAny over the
	// per-circuit waiter lists.
	MuxAnyWaiters
)

// String names the mode for figure labels.
func (m MuxMode) String() string {
	switch m {
	case MuxSelector:
		return "selector"
	case MuxAnyWaiters:
		return "receiveany, per-circuit waiters"
	default:
		return fmt.Sprintf("MuxMode(%d)", uint8(m))
	}
}

// HerdResult is one selector-herd run's outcome.
type HerdResult struct {
	// MsgsPerSec is delivered messages per second over the paced run
	// (pacing keeps it comparable across modes, not absolute).
	MsgsPerSec float64
	// WakeupsPerMsg is park wakeups per delivered message across every
	// parked consumer.
	WakeupsPerMsg float64
	// SpuriousPerMsg is the subset of those wakeups that found no
	// deliverable message — the herd cost.
	SpuriousPerMsg float64
}

// NativeSelectorHerd parks `waiters` consumer event loops, each
// multiplexing `circuitsPer` private circuits, and sends `msgs`
// messages to a single hot circuit owned by consumer 0 — every other
// consumer is pure bystander. Sends are paced a few tens of
// microseconds apart so consecutive pulses cannot coalesce into one
// observed wakeup, and so that each message finds the whole herd
// parked. The wakeup counters then tell the story: per-circuit waiters
// wake ~1 consumer per message regardless of bystanders.
func NativeSelectorHerd(mode MuxMode, waiters, circuitsPer, msgs int) (HerdResult, error) {
	if waiters < 1 || circuitsPer < 1 || msgs < 1 {
		return HerdResult{}, fmt.Errorf("bench: herd(waiters=%d, circuitsPer=%d, msgs=%d)",
			waiters, circuitsPer, msgs)
	}
	fac, err := mpf.New(
		mpf.WithMaxProcesses(waiters+1),
		mpf.WithMaxLNVCs(waiters*circuitsPer+4),
		mpf.WithBlocksPerProcess(blocksFor(16, 2*msgs/(waiters+1)+16)),
	)
	if err != nil {
		return HerdResult{}, err
	}
	defer fac.Shutdown()

	const (
		pace    = 50 * time.Microsecond
		parkTTL = 2 * time.Millisecond
	)
	producer := waiters // pid
	var done atomic.Bool
	var base mpf.Stats // counters at traffic start (set by producer)
	var elapsed atomic.Int64

	err = fac.Run(waiters+1, func(p *mpf.Process) (err error) {
		// Any worker error raises done so the others — who all poll it
		// between parks — drain out instead of waiting forever for
		// traffic that will never come.
		defer func() {
			if err != nil {
				done.Store(true)
			}
		}()
		if p.PID() == producer {
			// Wait for every consumer to report in, then let them park.
			ready, err := p.OpenReceive("herd-ready", mpf.FCFS)
			if err != nil {
				return err
			}
			defer ready.Close()
			one := make([]byte, 1)
			for i := 0; i < waiters; i++ {
				for {
					if done.Load() {
						return nil // a consumer failed during setup
					}
					_, err := ready.ReceiveDeadline(one, 50*time.Millisecond)
					if err == nil {
						break
					}
					if !errors.Is(err, mpf.ErrTimeout) {
						return err
					}
				}
			}
			time.Sleep(5 * time.Millisecond)
			s, err := p.OpenSend("herd-0-0")
			if err != nil {
				return err
			}
			base = fac.Stats()
			start := time.Now()
			payload := make([]byte, 16)
			for k := 0; k < msgs; k++ {
				if err := s.Send(payload); err != nil {
					return err
				}
				time.Sleep(pace)
			}
			// done is set by consumer 0 once it drains (or by any
			// failing worker); time the span here so both phases are
			// inside it.
			for !done.Load() {
				time.Sleep(time.Millisecond)
			}
			elapsed.Store(int64(time.Since(start)))
			return nil
		}

		// Consumer p: open this consumer's circuits, report ready, park.
		conns := make([]*mpf.RecvConn, circuitsPer)
		for i := range conns {
			rc, err := p.OpenReceive(fmt.Sprintf("herd-%d-%d", p.PID(), i), mpf.FCFS)
			if err != nil {
				return err
			}
			conns[i] = rc
		}
		var sel *mpf.Selector
		if mode == MuxSelector {
			s, err := p.NewSelector()
			if err != nil {
				return err
			}
			sel = s
			defer sel.Close()
			for _, rc := range conns {
				if err := sel.Add(rc); err != nil {
					return err
				}
			}
		}
		rdy, err := p.OpenSend("herd-ready")
		if err != nil {
			return err
		}
		if err := rdy.Send([]byte{1}); err != nil {
			return err
		}

		buf := make([]byte, 16)
		got := 0
		hot := p.PID() == 0
		for {
			if done.Load() {
				return nil
			}
			if mode == MuxSelector {
				ready, err := sel.WaitDeadline(parkTTL)
				if err != nil {
					if errors.Is(err, mpf.ErrTimeout) {
						continue
					}
					if errors.Is(err, mpf.ErrShutdown) {
						return nil
					}
					return err
				}
				for _, rc := range ready {
					for {
						_, ok, err := rc.TryReceive(buf)
						if err != nil {
							return err
						}
						if !ok {
							break
						}
						got++
					}
				}
			} else {
				_, _, err := p.ReceiveAnyDeadline(conns, buf, parkTTL)
				if err != nil {
					if errors.Is(err, mpf.ErrTimeout) {
						continue
					}
					if errors.Is(err, mpf.ErrShutdown) {
						return nil
					}
					return err
				}
				got++
			}
			if hot && got >= msgs {
				done.Store(true)
				return nil
			}
		}
	})
	if err != nil {
		return HerdResult{}, err
	}
	st := fac.Stats()
	wake := float64(st.MuxWakeups - base.MuxWakeups)
	spur := float64(st.MuxSpurious - base.MuxSpurious)
	return HerdResult{
		MsgsPerSec:     rate(msgs, time.Duration(elapsed.Load())),
		WakeupsPerMsg:  wake / float64(msgs),
		SpuriousPerMsg: spur / float64(msgs),
	}, nil
}

// HerdWaiters is the consumer count the selector sweep parks.
const HerdWaiters = 8

// SelectorSweep sweeps the bystander circuit count at HerdWaiters
// parked consumers and returns spurious wakeups per delivered message
// for the two multiplexing schemes — the selector-scaling figure
// `mpfbench -select` renders. Both curves flat at zero is the claim:
// wakeup cost stays O(ready), not O(parked waiters), however many idle
// circuits the facility carries.
func SelectorSweep(cfg Config) (*stats.Figure, error) {
	fig := stats.NewFigure(
		fmt.Sprintf("Selector Scaling — Spurious Wakeups per Message vs. Idle Circuits (%d parked consumers, native)", HerdWaiters),
		"total circuits", "spurious wakeups/msg")
	msgs := cfg.scale(400, 120)
	perWaiter := []int{2, 4, 8}
	if cfg.Quick {
		perWaiter = []int{2, 8}
	}
	for _, mode := range []MuxMode{MuxSelector, MuxAnyWaiters} {
		series := fig.AddSeries(mode.String())
		for _, per := range perWaiter {
			res, err := NativeSelectorHerd(mode, HerdWaiters, per, msgs)
			if err != nil {
				return nil, fmt.Errorf("herd %s circuitsPer=%d: %w", mode, per, err)
			}
			series.Add(HerdWaiters*per, res.SpuriousPerMsg)
		}
	}
	return fig, nil
}
