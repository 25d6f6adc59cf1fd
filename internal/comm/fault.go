// Fault-injection hooks of the SPMD machine. AttachInjector mirrors
// AttachTracer: a nil injector — the default — leaves every
// communication and compute path untouched (same arithmetic, same
// allocations, bit-identical modeled clocks), while an attached
// injector lets package fault drive deterministic, clock-scheduled
// crashes, stragglers, message drops and latency spikes through the
// Send/Recv/Compute primitives.
//
// Failure semantics: an injected crash panics the affected rank with
// an internal marker and flags it dead; every peer runs on until it
// needs a message the dead rank never sent, unwinds and is flagged in
// turn, and the run surfaces a typed PeerFailure instead of a raw panic
// (RunContext returns it as an error). A dropped message leaves a
// marker in its place on the link, and the receiver that reaches it
// fails blaming the sender, so a lost message is an event on the
// modeled clock like a crash.
package comm

import (
	"fmt"

	"hpfcg/internal/trace"
)

// Injector supplies deterministic fault decisions to a Machine's runs.
// Implementations live in package fault; the machine only sees these
// two interfaces so the dependency points fault -> comm.
type Injector interface {
	// StartRun is called at the start of every Run with the processor
	// count. It returns one RankInjector per rank; nil entries leave
	// that rank healthy and completely hook-free. An Injector may keep
	// state across sequential runs (a mission of restarts) but must not
	// be shared by concurrent runs.
	StartRun(np int) []RankInjector
}

// RankInjector is one rank's fault schedule, consulted from that
// rank's goroutine only (no synchronization required). All times are
// the rank's modeled clock within the current run.
type RankInjector interface {
	// CrashTime returns the modeled clock at which this rank dies, if
	// it is scheduled to crash during this run.
	CrashTime() (float64, bool)
	// FlopFactor returns the straggle multiplier on per-flop cost at
	// modeled time t (1 = healthy).
	FlopFactor(t float64) float64
	// SendFault is consulted once per message sent at modeled time t.
	// hopTime is the healthy network latency of the message (hops·t_h).
	// drop suppresses delivery entirely; delay adds modeled seconds to
	// the message's latency.
	SendFault(dst int, t, hopTime float64) (drop bool, delay float64)
}

// AttachInjector connects a fault injector: every subsequent Run
// consults it at Send/Recv/Compute. A nil injector — the default —
// disables injection with zero overhead on the communication paths.
// AttachInjector must not be called concurrently with Run.
func (m *Machine) AttachInjector(inj Injector) { m.inj = inj }

// Injector returns the attached fault injector (nil when detached).
func (m *Machine) Injector() Injector { return m.inj }

// PeerFailure is the typed error a fault-injected run surfaces:
// processor Rank failed (crashed, or lost a message a peer then came
// to need) at modeled time Clock. Every surviving rank unwinds when it
// comes to need the dead one instead of hanging, and RunContext
// returns the failure as an error.
type PeerFailure struct {
	Rank  int
	Clock float64
}

// Error names the failed rank and the modeled time of death.
func (e PeerFailure) Error() string {
	return fmt.Sprintf("comm: processor %d failed at modeled t=%.6gs", e.Rank, e.Clock)
}

// crashPanic is the internal marker the dying rank panics with; run
// converts it into the user-facing PeerFailure.
type crashPanic struct {
	rank  int
	clock float64
}

// checkCrash kills this rank once its modeled clock reaches the
// injected crash time. Called at the entry of Send/Recv and after
// Compute advances the clock, so the death point is a deterministic
// function of the modeled schedule, never of wall time.
func (p *Proc) checkCrash() {
	if !p.hasCrash || p.clock < p.crashAt {
		return
	}
	p.hasCrash = false
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindFault, Peer: -1, Op: "crash", Start: p.clock, End: p.clock})
	}
	panic(crashPanic{rank: p.rank, clock: p.clock})
}

// straggleFactor consults the injector for the current flop-cost
// multiplier, emitting a trace marker whenever the factor transitions
// (so Perfetto shows where the straggle window opens and closes
// without one event per Compute).
func (p *Proc) straggleFactor(t float64) float64 {
	f := p.inj.FlopFactor(t)
	if f != p.lastFactor {
		if p.tr != nil {
			p.tr.Add(trace.Event{Kind: trace.KindFault, Peer: -1, Op: "straggle", Start: t, End: t})
		}
		p.lastFactor = f
	}
	if f <= 0 {
		f = 1
	}
	return f
}

// ChargeIO advances the modeled clock by the cost of writing b bytes
// to stable storage, modeled like one message injection: t_s + b·t_w.
// The resilient solver charges each checkpoint write through it, which
// is what makes the checkpoint-interval trade-off of experiment E20
// (too often: pay the write; too rarely: lose work on rollback)
// visible on the modeled clock.
func (p *Proc) ChargeIO(bytes int) {
	start := p.clock
	dt := p.m.cost.TStartup + float64(bytes)*p.m.cost.TByte
	p.clock += dt
	p.stats.SendTime += dt
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindCollective, Peer: -1, Op: "checkpoint", Bytes: bytes, Start: start, End: p.clock})
	}
}
