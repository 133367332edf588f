package mpf

import (
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/shm"
)

// xrecordChunk is a chunk of n pushed records (1..16) as the bridge
// issues them: VIEWs going down, each with its payload's checksum, or
// LOANs going up, each with its sequence number, all stamped with gen.
func xrecordChunk(up bool, gen uint8, n int) *chunk {
	kind := XTagView
	if up {
		kind = XTagLoan
	}
	c := &chunk{recs: make([]shm.Record, n)}
	for i := range c.recs {
		c.recs[i] = shm.Record{Off: 1<<16 + int64(i)*1024, Len: 1020, Tag: xtag(kind, uint32(gen)), Word: uint16(0xA5A5 ^ i*257)}
	}
	return c
}

// xrecordWire appends recs in the ring's 16-byte record layout (the
// layout comment in internal/shm/xring.go).
func xrecordWire(b []byte, recs ...shm.Record) []byte {
	for _, r := range recs {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Off))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Len))
		b = binary.LittleEndian.AppendUint16(b, r.Tag)
		b = binary.LittleEndian.AppendUint16(b, r.Word)
	}
	return b
}

// FuzzXRecord feeds arbitrary reply streams to chunk.match, where the
// bridge decides whether a record the child wrote answers what it
// pushed. An input is a direction, any generation byte, a chunk of
// 1..16 pushed records and a stream of 16-byte replies, matched in
// order until one is refused or every record is answered, as runBridge
// does. A reply is accepted exactly when it is the echo the protocol
// defines — the oldest unanswered record with its kind turned into ACK
// (down) or FILLED (up), the same generation byte and, for an ACK, the
// same word — and refused with ErrRingCorrupt otherwise; nothing
// panics and got never passes the number pushed. The seeds are the
// replies a well-behaved worker (ProcClient.Serve) gives, whole and
// with one of each kind of fault.
func FuzzXRecord(f *testing.F) {
	for _, up := range []bool{false, true} {
		for _, n := range []uint8{1, 3, 16} {
			for _, gen := range []uint8{0, 1, 255} {
				c := xrecordChunk(up, gen, int(n))
				honest := make([]shm.Record, n)
				for i, r := range c.recs {
					if up {
						r.Tag, r.Word = xtag(XTagFilled, uint32(gen)), uint16(0x1234+i)
					} else {
						r.Tag = xtag(XTagAck, uint32(gen))
					}
					honest[i] = r
				}
				f.Add(up, gen, n-1, xrecordWire(nil, honest...))
				stale, wrongKind, moved := honest[0], honest[0], honest[0]
				stale.Tag = xtag(xtagKind(stale.Tag), uint32(gen)+1)
				wrongKind.Tag = c.recs[0].Tag
				moved.Off += 64
				for _, bad := range []shm.Record{stale, wrongKind, moved} {
					f.Add(up, gen, n-1, xrecordWire(nil, append([]shm.Record{bad}, honest[1:]...)...))
				}
				if n > 1 {
					f.Add(up, gen, n-1, xrecordWire(nil, honest[1], honest[0]))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, up bool, gen, k uint8, stream []byte) {
		n := 1 + int(k)%maxChunk
		c := xrecordChunk(up, gen, n)
		pushed := append([]shm.Record(nil), c.recs...)
		for ; len(stream) >= shm.RecordBytes && c.got < n; stream = stream[shm.RecordBytes:] {
			rec := shm.Record{
				Off:  int64(binary.LittleEndian.Uint64(stream)),
				Len:  int32(binary.LittleEndian.Uint32(stream[8:])),
				Tag:  binary.LittleEndian.Uint16(stream[12:]),
				Word: binary.LittleEndian.Uint16(stream[14:]),
			}
			i := c.got
			echo := pushed[i]
			if up {
				echo.Tag, echo.Word = xtag(XTagFilled, uint32(gen)), rec.Word
			} else {
				echo.Tag = xtag(XTagAck, uint32(gen))
			}
			err := c.match(rec, 0, up)
			switch {
			case rec == echo && err != nil:
				t.Fatalf("record %d of %d: the exact echo %+v of %+v was refused: %v", i, n, rec, pushed[i], err)
			case rec != echo && err == nil:
				t.Fatalf("record %d of %d: %+v accepted as the reply to %+v", i, n, rec, pushed[i])
			case err != nil && !errors.Is(err, shm.ErrRingCorrupt):
				t.Fatalf("record %d of %d: refusal %v is not ErrRingCorrupt", i, n, err)
			case err != nil:
				if c.got != i {
					t.Fatalf("a refused reply moved got from %d to %d", i, c.got)
				}
				return // the bridge declares the peer dead at the first refusal
			}
			if c.got != i+1 || c.recs[i].Word != rec.Word {
				t.Fatalf("record %d of %d accepted: got %d, word %#x; want %d, %#x", i, n, c.got, c.recs[i].Word, i+1, rec.Word)
			}
		}
		if c.got > n {
			t.Fatalf("got %d of %d pushed", c.got, n)
		}
	})
}
