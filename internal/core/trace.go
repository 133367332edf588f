package core

// Op identifies an MPF primitive in a trace event.
type Op uint8

// Trace operation codes, one per user-visible primitive.
const (
	OpOpenSend Op = iota
	OpOpenReceive
	OpCloseSend
	OpCloseReceive
	OpSend
	OpReceive
	OpCheckReceive
	OpTryReceive
	OpSendLoan
	OpLoanCommit
	OpReceiveView
	OpTryReceiveView
	OpLoanBatch
	OpLoanBatchCommit
	OpHarvestViews
	// OpCreditStall records a send-side park for circuit credit: the
	// budget could not cover the message and the sender waited for a
	// receiver-side grant. Bytes carries the parked demand in region
	// bytes (accounted blocks times the block size).
	OpCreditStall
	// OpPeerReclaim records one dead-peer reclamation: a segment peer
	// died and the serving facility tore down its bridge, restored its
	// pinned views, refunded its credit and freed its table slot. PID
	// carries the dead peer's slot-local pid; Bytes the reclaimed
	// resource count (views plus credit blocks).
	OpPeerReclaim
)

var opNames = [...]string{
	OpOpenSend:        "open_send",
	OpOpenReceive:     "open_receive",
	OpCloseSend:       "close_send",
	OpCloseReceive:    "close_receive",
	OpSend:            "message_send",
	OpReceive:         "message_receive",
	OpCheckReceive:    "check_receive",
	OpTryReceive:      "try_receive",
	OpSendLoan:        "loan_acquire",
	OpLoanCommit:      "message_send_loan",
	OpReceiveView:     "message_receive_view",
	OpTryReceiveView:  "try_receive_view",
	OpLoanBatch:       "loan_batch_acquire",
	OpLoanBatchCommit: "message_send_loan_batch",
	OpHarvestViews:    "harvest_views",
	OpCreditStall:     "credit_stall",
	OpPeerReclaim:     "peer_reclaim",
}

// String returns the paper's name for the primitive.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Event is one traced primitive invocation.
type Event struct {
	Op    Op
	PID   int
	LNVC  ID
	Name  string // LNVC name (open operations only)
	Bytes int    // payload bytes (send/receive only)
	Err   error  // nil on success
}

// Tracer receives events from an instrumented facility. Implementations
// must be safe for concurrent use; Trace is called with no facility locks
// held beyond the caller's own.
type Tracer interface {
	Trace(Event)
}

func (f *Facility) trace(ev Event) {
	if f.cfg.Tracer != nil {
		f.cfg.Tracer.Trace(ev)
	}
}
