package shm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The layout rule (package comment): an element's payload starts on its
// block boundary, its reserved link word is the last word of the slot
// before it (the link itself lives beside the bitmap), and the region base is 64-byte aligned. These tests hold the rule on
// every backing, with and without multi-block spans; the benchmark at
// the end is the copy matrix that found why it matters.

// arenaBackings are the ways a region comes to exist: New's own heap
// allocation, a window of a heap segment, and a window of a memfd
// mapping (skipped where the platform has none).
var arenaBackings = []struct {
	name string
	make func(tb testing.TB, cfg Config) *Arena
}{
	{"heap", func(tb testing.TB, cfg Config) *Arena {
		a, err := New(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return a
	}},
	{"segment", func(tb testing.TB, cfg Config) *Arena {
		seg, err := NewSegment(AlignUp(100) + cfg.Bytes())
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { seg.Close() })
		return arenaAt(tb, cfg, seg)
	}},
	{"memfd", func(tb testing.TB, cfg Config) *Arena {
		seg, err := NewSharedSegment("mpf-align-test", AlignUp(100)+cfg.Bytes())
		if errors.Is(err, ErrNoSharedBackend) {
			tb.Skip("no shared backend")
		}
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { seg.Close() })
		return arenaAt(tb, cfg, seg)
	}},
}

// arenaAt carves the arena out of seg the way mpf.ServeProc does: at an
// AlignUp'd offset behind whatever precedes it.
func arenaAt(tb testing.TB, cfg Config, seg *Segment) *Arena {
	a, err := NewAt(cfg, seg.At(AlignUp(100), cfg.Bytes()))
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// elements returns the offsets of the chain's elements in order.
func elements(a *Arena, head int32) []int32 {
	var offs []int32
	for off := head; off != NilOffset; off = a.Next(off) {
		offs = append(offs, off)
	}
	return offs
}

// With spans=false the region is combed before anything is allocated,
// so that no element covers more than one block — the layout of the
// paper's linked free list — and the same checks run on it.
func TestPayloadAlignment(t *testing.T) {
	for _, backing := range arenaBackings {
		for _, spans := range []bool{true, false} {
			for _, bs := range []int{64, 512, 48, 10} {
				t.Run(fmt.Sprintf("%s/spans=%v/block%d", backing.name, spans, bs), func(t *testing.T) {
					// The largest power of two dividing the block size, up
					// to a cache line: 64, 64, 16, 2.
					align := uintptr(min(bs&-bs, 64))
					a := backing.make(t, Config{BlockSize: bs, NumBlocks: 300})
					if base := sliceAddr(a.mem); base%64 != 0 {
						t.Fatalf("region base %#x is not 64-byte aligned", base)
					}
					check := func(what string, head int32) {
						t.Helper()
						for _, off := range elements(a, head) {
							if p := a.SegPayload(off); sliceAddr(p)%align != 0 {
								t.Errorf("%s: SegPayload(%d) at %#x, want a multiple of %d", what, off, sliceAddr(p), align)
							}
						}
					}

					var teeth []int32
					if !spans {
						teeth = comb(t, a)
					}
					single, _, err := a.AllocPayload(40*bs, false, nil)
					if err != nil {
						t.Fatal(err)
					}
					if n, blocks := a.ChainLen(single), a.ChainBlocks(single); spans && n != 1 || !spans && n != blocks {
						t.Fatalf("allocation of %d bytes has %d elements over %d blocks", 40*bs, n, blocks)
					}
					check("single span", single)

					heads, _, err := a.AllocPayloads([]int{0, 1, bs, 7 * bs, 30 * bs}, false, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, head := range heads {
						check("batch", head)
					}
					a.FreeChains(append(heads, single))

					// Comb the region — every other block held — so that no
					// run is longer than one block and a payload of several
					// blocks has to be chained.
					if spans {
						teeth = comb(t, a)
					}
					frag, _, err := a.AllocPayload(10*bs, false, nil)
					if err != nil {
						t.Fatal(err)
					}
					if n := a.ChainLen(frag); n < 10 {
						t.Fatalf("fragmented allocation has %d elements, want one per block", n)
					}
					check("fragmented", frag)
					for _, off := range teeth {
						check("single block", off)
					}
				})
			}
		}
	}
}

// TestPayloadLinkDisjoint is the property the layout rests on: no
// reserved link word — an element's own or a neighbour's — shares a byte
// with any payload, and no chain walk reads one. Every live element's
// payload is filled to capacity with a pattern of its own; garbage is
// written into every element's region word [off-4, off), where a peer
// process can reach it, and neighbours are freed and reallocated around
// it; no payload byte may change and every chain must still walk, read
// and free. With spans=false every other block is held throughout, so
// that every element is a single block, as on the paper's linked free
// list.
func TestPayloadLinkDisjoint(t *testing.T) {
	for _, spans := range []bool{true, false} {
		for _, bs := range []int{5, 10, 16, 64} {
			t.Run(fmt.Sprintf("spans=%v/block%d", spans, bs), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(bs)))
				a := mustArena(t, bs, 257)
				type chain struct {
					elems  []int32
					want   [][]byte // per element, the payload as filled
					pinned bool     // a comb tooth: freed only at the end
				}
				var live []*chain
				stamp := byte(0)
				adopt := func(head int32) *chain {
					c := &chain{elems: elements(a, head)}
					for _, off := range c.elems {
						if k := a.spanLen[a.blockIndex(off)]; !spans && k != 1 {
							t.Fatalf("element at %d covers %d blocks in a combed region", off, k)
						}
						p := a.SegPayload(off)
						stamp++
						for i := range p {
							p[i] = stamp + byte(i)*7
						}
						c.want = append(c.want, bytes.Clone(p))
					}
					live = append(live, c)
					return c
				}
				fillRegion := func() {
					for {
						head, _, err := a.AllocPayload(rng.Intn(6*bs), false, nil)
						if err != nil {
							return
						}
						adopt(head)
					}
				}
				verify := func(when string) {
					t.Helper()
					for _, c := range live {
						if !slices.Equal(elements(a, c.elems[0]), c.elems) {
							t.Fatalf("%s: chain at %d walks %v, want %v", when, c.elems[0], elements(a, c.elems[0]), c.elems)
						}
						var want []byte
						for i, off := range c.elems {
							if !bytes.Equal(a.SegPayload(off), c.want[i]) {
								t.Fatalf("%s: payload of element %d changed", when, off)
							}
							want = append(want, c.want[i]...)
						}
						got := make([]byte, len(want))
						if n := a.ReadChain(c.elems[0], len(want), got); n != len(want) || !bytes.Equal(got, want) {
							t.Fatalf("%s: chain at %d reads %d bytes, not its payload", when, c.elems[0], n)
						}
					}
				}

				// Start fragmented: single blocks scattered over the region
				// (every other one without spans), chains of mixed shapes in
				// the holes between them.
				singles, _, err := a.AllocPayloads(make([]int, a.NumBlocks()), false, nil)
				if err != nil {
					t.Fatal(err)
				}
				var holes []int32
				for i, off := range singles {
					if !spans && i%2 == 1 {
						adopt(off).pinned = true
					} else if spans && rng.Intn(3) == 0 {
						adopt(off)
					} else {
						holes = append(holes, off)
					}
				}
				a.FreeChains(holes)
				fillRegion()
				verify("after the fill")

				for round := 0; round < 4; round++ {
					// Scribble every element's region link word as a peer
					// could: an offset far outside the region.
					for _, c := range live {
						for _, off := range c.elems {
							binary.LittleEndian.PutUint32(a.mem[off-4:off], 0x7fff0000)
						}
					}
					verify("with every link word scribbled")

					// Free every other chain and fill the holes again.
					kept := live[:0]
					for i, c := range live {
						if !c.pinned && i%2 == round%2 {
							a.FreeChain(c.elems[0])
						} else {
							kept = append(kept, c)
						}
					}
					live = kept
					verify("after freeing neighbours")
					fillRegion()
					verify("after reallocating neighbours")
				}

				for _, c := range live {
					a.FreeChain(c.elems[0])
				}
				if free := a.FreeBlocks(); free != a.NumBlocks() {
					t.Fatalf("%d of %d blocks free at the end", free, a.NumBlocks())
				}
				if err := a.CheckFreeList(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestAlignedCopy checks the peeled copy against copy at every pairing of
// source and destination offsets around the 2 KiB threshold.
func TestAlignedCopy(t *testing.T) {
	src := make([]byte, 5000)
	for i := range src {
		src[i] = byte(i*31 + i>>8)
	}
	for _, n := range []int{0, 1, 7, 2047, 2048, 2049, 4099} {
		for so := 0; so < 17; so++ {
			for do := 0; do < 17; do++ {
				dst := make([]byte, 5000)
				if got := alignedCopy(dst[do:do+n], src[so:so+n+3]); got != n {
					t.Fatalf("n=%d src+%d dst+%d: copied %d", n, so, do, got)
				}
				if !bytes.Equal(dst[do:do+n], src[so:so+n]) || dst[do+n] != 0 || (do > 0 && dst[do-1] != 0) {
					t.Fatalf("n=%d src+%d dst+%d: wrong bytes", n, so, do)
				}
			}
		}
	}
}

// BenchmarkChainCopy is the matrix that found the layout: the two
// structural copies, 2 KiB and 16 KiB, against a caller buffer at
// several offsets from a 64-byte boundary. Within one arena and size
// every cell should cost about the same; CI fails the build when the
// slowest is more than 3x the fastest. The comb arena is fragmented
// before the copies so that a 16 KiB payload is a chain of five
// single-block segments; its blocks are 4 KiB so that every segment's
// copy is on memmove's large path too.
func BenchmarkChainCopy(b *testing.B) {
	arenas := []struct {
		name    string
		backing int
		cfg     Config
		comb    bool
	}{
		{"heap-span", 0, Config{BlockSize: 64, NumBlocks: 1024}, false},
		{"segment-span", 1, Config{BlockSize: 64, NumBlocks: 1024}, false},
		{"heap-comb4k", 0, Config{BlockSize: 4096, NumBlocks: 16}, true},
	}
	for _, ar := range arenas {
		a := arenaBackings[ar.backing].make(b, ar.cfg)
		if ar.comb {
			comb(b, a)
		}
		for _, size := range []int{2048, 16384} {
			head, _, err := a.AllocPayload(size, false, nil)
			if err != nil {
				b.Fatal(err)
			}
			raw := make([]byte, size+128)
			line := raw[-sliceAddr(raw)&63:]
			for _, userOff := range []int{0, 4, 8, 16, 60} {
				user := line[userOff : userOff+size]
				b.Run(fmt.Sprintf("%s/%d/in/user+%d", ar.name, size, userOff), func(b *testing.B) {
					b.SetBytes(int64(size))
					for i := 0; i < b.N; i++ {
						a.WriteChain(head, user)
					}
				})
				b.Run(fmt.Sprintf("%s/%d/out/user+%d", ar.name, size, userOff), func(b *testing.B) {
					b.SetBytes(int64(size))
					for i := 0; i < b.N; i++ {
						a.ReadChain(head, size, user)
					}
				})
			}
			a.FreeChain(head)
		}
	}
}
