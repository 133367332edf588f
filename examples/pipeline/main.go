// Pipeline: a Unix-pipe-style text pipeline over LNVCs.
//
// Three processes: a generator sends lines into a "raw" circuit; a
// filter upcases them onto "cooked"; a consumer counts and prints a
// sample. Each hop carries one line per message and ends with a
// zero-length message, a framing this program builds on the paper's
// send and receive primitives — the hybrid shared-memory/message-passing
// style the paper's conclusion advertises ("a particularly interesting
// benefit ... is the ability to develop a program using a hybrid
// parallel programming paradigm").
//
//	go run ./examples/pipeline [-lines 10000]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"

	"repro/mpf"
)

// maxLine bounds one line; a longer one would be truncated on receipt.
const maxLine = 256

func main() {
	lines := flag.Int("lines", 10000, "lines to push through the pipeline")
	flag.Parse()

	fac, err := mpf.New(mpf.WithMaxProcesses(3), mpf.WithBlocksPerProcess(4096))
	if err != nil {
		log.Fatal(err)
	}
	defer fac.Shutdown()

	var count int
	var sample string
	err = fac.Run(3, func(p *mpf.Process) error {
		switch p.PID() {
		case 0: // generator
			s, err := p.OpenSend("raw")
			if err != nil {
				return err
			}
			line := make([]byte, 0, maxLine)
			for i := 0; i < *lines; i++ {
				line = fmt.Appendf(line[:0], "record %08d: the quick brown fox", i)
				if err := s.Send(line); err != nil {
					return err
				}
			}
			return s.Send(nil)

		case 1: // filter: upcase
			in, err := p.OpenReceive("raw", mpf.FCFS)
			if err != nil {
				return err
			}
			defer in.Close()
			out, err := p.OpenSend("cooked")
			if err != nil {
				return err
			}
			if err := eachLine(in, func(line []byte) error { return out.Send(bytes.ToUpper(line)) }); err != nil {
				return err
			}
			return out.Send(nil)

		default: // consumer
			in, err := p.OpenReceive("cooked", mpf.FCFS)
			if err != nil {
				return err
			}
			defer in.Close()
			return eachLine(in, func(line []byte) error {
				if count == 0 {
					sample = string(line)
				}
				count++
				return nil
			})
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline moved %d lines; first: %q\n", count, sample)
	st := fac.Stats()
	fmt.Printf("MPF: %d messages, %d bytes\n", st.Sends, st.BytesSent)
}

// eachLine calls fn with every message r receives, up to the
// zero-length message that ends the stream.
func eachLine(r *mpf.RecvConn, fn func(line []byte) error) error {
	buf := make([]byte, maxLine)
	for {
		n, err := r.Receive(buf)
		if err != nil || n == 0 {
			return err
		}
		if err := fn(buf[:n]); err != nil {
			return err
		}
	}
}
