// Package trace is the observability subsystem of the SPMD machine:
// a low-overhead event recorder that internal/comm emits into when a
// Tracer is attached, plus the analyses the paper's evaluation calls
// for — per-pair communication matrices, a happens-before critical
// path whose length lower-bounds the modeled makespan, and exporters
// to Chrome/Perfetto trace JSON and an ASCII per-rank timeline.
//
// The package deliberately does not import internal/comm: comm emits
// events into a Recorder, and every analysis here works from the
// recorded events alone. All timestamps are the machine's *modeled*
// clock (seconds under the Kumar cost model), not wall time, so a
// trace of a 16-processor run is exactly the timeline the paper's §4
// cost expressions describe.
package trace

import (
	"fmt"
	"sync"
)

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindCompute is a span of modeled floating-point work.
	KindCompute Kind = iota
	// KindSend is the sender-side start-up span of one point-to-point
	// message (the t_s charge); the transfer itself is charged to the
	// matching KindRecv.
	KindSend
	// KindRecv is the receiver-side span of one message: waiting for
	// the head to arrive plus the body transfer (t_h and t_w charges).
	KindRecv
	// KindCollective is a collective-enter/exit span (barrier, bcast,
	// reduce, ...). Collective spans enclose the primitive events the
	// collective's algorithm issued and carry the operation name in Op.
	KindCollective
	// KindFault is an injected-fault marker (crash, straggle window
	// transition, dropped message, latency spike, and "lost" where the
	// receiver reached the place of a dropped message). Fault
	// events are instants: Start == End, with the fault name in Op and
	// the peer rank in Peer where one is involved (-1 otherwise).
	KindFault
)

// String returns a short human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindCollective:
		return "collective"
	case KindFault:
		return "fault"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one recorded occurrence on one processor. Start and End are
// modeled seconds; End >= Start always.
type Event struct {
	Kind Kind
	Rank int
	// Peer is the destination rank for sends and the source rank for
	// receives; -1 otherwise.
	Peer int
	// Tag is the message tag (sends and receives).
	Tag int
	// Bytes is the modeled payload size (sends and receives).
	Bytes int
	// Flops is the floating-point operation count (compute spans).
	Flops int
	// Op names the collective for KindCollective spans ("bcast", ...).
	Op string
	// Start and End delimit the span on the modeled clock.
	Start, End float64
	// Depart is the matched sender's clock when the message left, and
	// Head the time its first byte reached this rank (Depart plus the
	// per-hop latency). Set on KindRecv only; together they let the
	// critical-path analysis recover the network delay of the message
	// edge without knowing the machine's cost parameters.
	Depart, Head float64
}

// Duration returns End - Start.
func (e Event) Duration() float64 { return e.End - e.Start }

// RankLog is the per-processor event buffer. Each SPMD goroutine owns
// exactly one RankLog during a run, so Add needs no synchronization.
type RankLog struct {
	rank   int
	events []Event
}

// Add appends one event. It must only be called from the goroutine
// that owns this rank.
func (l *RankLog) Add(ev Event) {
	ev.Rank = l.rank
	l.events = append(l.events, ev)
}

// Recorder holds one run's trace: NP rank logs plus run-level
// metadata. A Recorder is written during exactly one Machine.Run and
// read-only afterwards.
type Recorder struct {
	np    int
	logs  []*RankLog
	label string
	mtime float64 // modeled makespan, set by the machine at run end
}

// NewRecorder creates a recorder for an np-processor run.
func NewRecorder(np int) *Recorder {
	if np < 1 {
		panic(fmt.Sprintf("trace: NewRecorder with np=%d", np))
	}
	r := &Recorder{np: np, logs: make([]*RankLog, np)}
	for i := range r.logs {
		r.logs[i] = &RankLog{rank: i}
	}
	return r
}

// NP returns the number of processors in the traced run.
func (r *Recorder) NP() int { return r.np }

// Rank returns the event buffer for one processor.
func (r *Recorder) Rank(rank int) *RankLog {
	if rank < 0 || rank >= r.np {
		panic(fmt.Sprintf("trace: rank %d out of range [0,%d)", rank, r.np))
	}
	return r.logs[rank]
}

// Label returns the run label assigned by the tracer (or "").
func (r *Recorder) Label() string { return r.label }

// ModelTime returns the run's modeled makespan (the maximum processor
// clock), as reported by the machine when the run finished.
func (r *Recorder) ModelTime() float64 { return r.mtime }

// Seal records the run's makespan; the machine calls it when the run
// completes and the recorder becomes read-only.
func (r *Recorder) Seal(modelTime float64) {
	r.mtime = modelTime
}

// RankEvents returns one rank's events in the order they were
// recorded. Primitive events (compute/send/recv) appear in execution
// order with non-decreasing Start; collective spans are appended at
// their end time, after the primitives they enclose.
func (r *Recorder) RankEvents(rank int) []Event { return r.Rank(rank).events }

// NumEvents returns the total event count across ranks.
func (r *Recorder) NumEvents() int {
	n := 0
	for _, l := range r.logs {
		n += len(l.events)
	}
	return n
}

// primitives returns one rank's compute/send/recv events in execution
// order, excluding collective spans.
func (r *Recorder) primitives(rank int) []Event {
	evs := r.logs[rank].events
	out := make([]Event, 0, len(evs))
	for _, e := range evs {
		if e.Kind != KindCollective {
			out = append(out, e)
		}
	}
	return out
}

// Tracer collects one Recorder per Machine.Run. Attach a Tracer to a
// comm.Machine and every subsequent Run deposits its trace here; runs
// may be concurrent (each gets its own Recorder).
type Tracer struct {
	mu   sync.Mutex
	runs []*Recorder
}

// StartRun allocates the recorder for a run of np processors. The
// machine calls this at run start.
func (t *Tracer) StartRun(np int) *Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec := NewRecorder(np)
	rec.label = fmt.Sprintf("run%d-np%d", len(t.runs), np)
	t.runs = append(t.runs, rec)
	return rec
}

// Runs returns the recorders in start order. Only sealed recorders
// belong to completed runs.
func (t *Tracer) Runs() []*Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Recorder, len(t.runs))
	copy(out, t.runs)
	return out
}

// Last returns the most recently started recorder, or nil.
func (t *Tracer) Last() *Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.runs) == 0 {
		return nil
	}
	return t.runs[len(t.runs)-1]
}
