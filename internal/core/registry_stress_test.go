package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestShardedRegistryChurnNoLeaks is the registry stress test: many
// goroutines churn open/send/receive/close on a small, overlapping set
// of circuit names, so circuit creation, deletion and descriptor
// recycling race constantly on the one registry lock (run it under
// -race). At the end every identifier and every arena block must be
// back on its free list and the created/deleted counters must balance
// — a leaked descriptor shows up in all three.
//
// The test and its one case keep the names they had when the registry
// was split 16 ways, so its record stays under one name; the registry
// now has a single lock, as in the paper.
func TestShardedRegistryChurnNoLeaks(t *testing.T) {
	const (
		workers = 16
		names   = 5
		rounds  = 300
	)
	t.Run("shards=16", func(t *testing.T) {
		f, err := Init(Config{
			MaxLNVCs:         names + 2,
			MaxProcesses:     workers,
			BlocksPerProcess: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(pid int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(pid) * 7919))
				buf := make([]byte, 32)
				for r := 0; r < rounds; r++ {
					name := fmt.Sprintf("churn-%d", rng.Intn(names))
					sid, err := f.OpenSend(pid, name)
					if err != nil {
						// The table can transiently fill while another
						// goroutine's delete is mid-flight.
						if errors.Is(err, ErrTooManyLNVCs) {
							continue
						}
						t.Error(err)
						return
					}
					switch rng.Intn(3) {
					case 0:
						if err := f.Send(pid, sid, []byte("ping")); err != nil {
							t.Error(err)
							return
						}
					case 1:
						b, err := f.LoanBatch(pid, sid, []int{1, 1, 1})
						if err != nil {
							t.Error(err)
							return
						}
						for i := 0; i < b.Len(); i++ {
							b.Fill(i, []byte{byte(i + 1)})
						}
						if err := b.CommitAll(); err != nil {
							t.Error(err)
							return
						}
					}
					if rng.Intn(2) == 0 {
						rid, err := f.OpenReceive(pid, name, FCFS)
						if err == nil {
							for {
								_, ok, err := f.TryReceive(pid, rid, buf)
								if err != nil {
									t.Error(err)
									return
								}
								if !ok {
									break
								}
							}
							if err := f.CloseReceive(pid, rid); err != nil {
								t.Error(err)
								return
							}
						} else if !errors.Is(err, ErrAlreadyOpen) && !errors.Is(err, ErrTooManyLNVCs) {
							t.Error(err)
							return
						}
					}
					if err := f.CloseSend(pid, sid); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		if n := f.LNVCCount(); n != 0 {
			t.Errorf("%d circuits still live after churn", n)
		}
		st := f.Stats()
		if st.LNVCsCreated != st.LNVCsDeleted {
			t.Errorf("descriptor leak: %d created, %d deleted", st.LNVCsCreated, st.LNVCsDeleted)
		}
		if free, max := f.FreeIDCount(), f.Config().MaxLNVCs; free != max {
			t.Errorf("identifier leak: %d of %d ids free", free, max)
		}
		if free, total := f.Arena().FreeBlocks(), f.Arena().NumBlocks(); free != total {
			t.Errorf("block leak: %d of %d arena blocks free", free, total)
		}
		if err := f.Arena().CheckFreeList(); err != nil {
			t.Errorf("arena free list corrupt: %v", err)
		}
		if st.Opens != st.Closes {
			t.Errorf("connection imbalance: %d opens, %d closes", st.Opens, st.Closes)
		}
		// Registry accounting covers the traffic: every open and
		// every close takes the registry lock at least once.
		if total := st.RegistryAcquisitions; total < st.Opens+st.Closes {
			t.Errorf("registry recorded %d acquisitions for %d open/close ops", total, st.Opens+st.Closes)
		}
		f.Shutdown()
	})
}
