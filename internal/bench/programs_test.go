package bench

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/balance"
	"repro/mpf"
)

// TestTrafficMatchesAcrossBackends runs each benchmark program at one
// small size on both backends. Each must carry exactly the program's
// traffic — every message sent once and taken by as many receivers as
// its protocol says, the byte total the program returns — counted by
// the facility's own ledger: core's Stats natively, simmpf's counters
// simulated.
func TestTrafficMatchesAcrossBackends(t *testing.T) {
	for _, c := range []struct {
		name         string
		msgLen, sent int
		program      func(apps.Runner) (int, error)
	}{
		{"base", 64, 10, func(r apps.Runner) (int, error) { return Base(r, 64, 10) }},
		{"fcfs", 128, 10, func(r apps.Runner) (int, error) { return Fanout(r, mpf.FCFS, 128, 3, 10) }},
		{"broadcast", 128, 10, func(r apps.Runner) (int, error) { return Fanout(r, mpf.Broadcast, 128, 3, 10) }},
		{"random", 64, 40, func(r apps.Runner) (int, error) { return Random(r, 64, 4, 10) }},
	} {
		fac, err := mpf.New(mpf.WithMaxProcesses(4), mpf.WithMaxLNVCs(8),
			mpf.WithBlocksPerProcess(1024), mpf.WithFailFastSend())
		if err != nil {
			t.Fatal(err)
		}
		bytes, err := c.program(apps.Native(fac))
		st := fac.Stats()
		fac.Shutdown()
		if err != nil {
			t.Fatalf("%s native: %v", c.name, err)
		}
		s := apps.Simulated(balance.Balance21000())
		simBytes, err := c.program(s)
		if err != nil {
			t.Fatalf("%s simulated: %v", c.name, err)
		}
		if simBytes != bytes {
			t.Errorf("%s: %d bytes simulated, %d native", c.name, simBytes, bytes)
		}
		if st.MessagesDropped != 0 {
			t.Errorf("%s native: %d messages dropped", c.name, st.MessagesDropped)
		}
		var sim [4]uint64
		sim[0], sim[1] = s.Facility().Sent()
		sim[2], sim[3] = s.Facility().Delivered()
		n, b := uint64(c.sent), uint64(bytes)
		want := [4]uint64{n, n * uint64(c.msgLen), b / uint64(c.msgLen), b}
		for _, got := range []struct {
			backend string
			counts  [4]uint64
		}{
			{"native", [4]uint64{st.Sends, st.BytesSent, st.Receives, st.BytesRecvd}},
			{"simulated", sim},
		} {
			if got.counts != want {
				t.Errorf("%s %s: sends, bytes sent, receives, bytes received = %v, want %v",
					c.name, got.backend, got.counts, want)
			}
		}
	}
}
