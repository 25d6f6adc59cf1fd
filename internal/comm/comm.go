// Package comm implements the message-passing substrate the paper's
// HPF runtime compiles to. Go has no MPI or array-parallel library, so
// this package builds one: a Machine runs NP virtual processors as
// goroutines in SPMD style, each with typed point-to-point sends over
// buffered channels and the collectives built on them: a dissemination
// barrier, scatter, allgather (recursive doubling or ring), an
// all-to-all of index lists, the reduce-scatter behind MERGE(+), and
// one binomial tree (tree.go) — a reduce to member 0 and a broadcast
// from it — behind every allreduce, blocking or not, and every Group
// collective. An unobserved run (no tracer, no injector) charges the
// allreduce's tree by replay at one rendezvous (rendezvous.go); a
// traced or faulted run performs it message by message. Both give every
// value, clock and stat the same bits.
//
// Alongside real execution, every processor advances a modeled clock
// using the Kumar-style cost model the paper's §4 analysis uses: a
// b-byte message over h hops costs t_s + h*t_h + b*t_w, and f flops
// cost f*t_f. The modeled parallel time of a run is the maximum clock
// over processors, so experiments can compare simulated collective
// costs against the paper's closed-form expressions while still
// checking numerical results for real.
package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hpfcg/internal/topology"
	"hpfcg/internal/trace"
)

// Payload is the unit of data exchanged between processors. A message
// may carry floats, ints, or both; modeled size is 8 bytes per element.
type Payload struct {
	Floats []float64
	Ints   []int
}

// Bytes returns the modeled wire size of the payload.
func (pl Payload) Bytes() int { return 8 * (len(pl.Floats) + len(pl.Ints)) }

type message struct {
	tag    int
	pl     Payload
	depart float64 // sender's modeled clock when the message left
	delay  float64 // injected extra latency (fault layer); 0 when healthy
	// hops is int32 so that lost shares its word: mailbox buffers, which
	// a cached plan keeps alive through its last run, do not grow.
	hops int32
	// lost marks the place of a message the fault layer dropped: the
	// receiver that reaches it fails instead of reading what follows.
	lost bool
}

// Machine is an NP-processor virtual parallel computer with a fixed
// interconnection topology and cost parameters. A Machine is reusable:
// each Run gets fresh mailboxes.
type Machine struct {
	np     int
	topo   topology.Topology
	cost   topology.CostParams
	tracer *trace.Tracer
	inj    Injector // nil = fault injection disabled
}

// NewMachine creates a machine of np processors connected by topo and
// charged according to cost. np must be >= 1.
func NewMachine(np int, topo topology.Topology, cost topology.CostParams) *Machine {
	if np < 1 {
		panic(fmt.Sprintf("comm: NewMachine with np=%d", np))
	}
	return &Machine{np: np, topo: topo, cost: cost}
}

// NP returns the number of processors.
func (m *Machine) NP() int { return m.np }

// Topology returns the machine's interconnection network.
func (m *Machine) Topology() topology.Topology { return m.topo }

// Cost returns the machine's cost parameters.
func (m *Machine) Cost() topology.CostParams { return m.cost }

// AttachTracer connects an event tracer: every subsequent Run records
// its sends, receives, compute spans, and collective spans into a
// fresh trace.Recorder deposited on t (one per run, labeled in start
// order). A nil tracer — the default — keeps tracing disabled with
// zero overhead on the communication paths. AttachTracer must not be
// called concurrently with Run.
func (m *Machine) AttachTracer(t *trace.Tracer) { m.tracer = t }

// ProcStats accumulates per-processor accounting during a Run.
type ProcStats struct {
	MsgsSent    int64   // point-to-point messages sent
	BytesSent   int64   // modeled bytes sent
	MsgsRecv    int64   // point-to-point messages received
	BytesRecv   int64   // modeled bytes received
	Flops       int64   // floating-point operations charged via Compute
	SendTime    float64 // modeled time spent in send overheads
	WaitTime    float64 // modeled time spent waiting for messages
	ComputeTime float64 // modeled time spent computing
	// ReduceHiddenTime is the modeled reduction time nonblocking
	// collectives hid behind overlapped compute; ReduceExposedTime is
	// what their Waits still had to charge. Hidden + exposed equals the
	// blocking cost of every waited-on IallreduceScalars, so hidden > 0
	// means Wait charged strictly less than the blocking path would.
	ReduceHiddenTime  float64
	ReduceExposedTime float64
}

// RunStats summarises one Run of a Machine.
type RunStats struct {
	ModelTime  float64     // modeled parallel time: max processor clock
	Procs      []ProcStats // per-rank accounting
	TotalMsgs  int64
	TotalBytes int64
	// TotalMsgsRecv/TotalBytesRecv count the receive side; they equal
	// the send-side totals when every message was consumed, and the
	// difference is the number of messages a buggy program left
	// undelivered in the mailboxes.
	TotalMsgsRecv  int64
	TotalBytesRecv int64
	TotalFlops     int64
	MaxFlops       int64 // flops on the most loaded processor
	// BytesMatrix[src][dst] is the modeled bytes sent from src to dst —
	// the communication matrix, which makes the difference between a
	// broadcast pattern (dense matrix) and a halo exchange (banded
	// matrix) directly visible.
	BytesMatrix [][]int64
}

// ReduceOverlap sums the nonblocking-collective accounting across
// ranks: hidden is the modeled reduction time that overlapped compute
// absorbed, exposed is what the Waits actually charged. Both are zero
// for programs that only use blocking collectives.
func (rs RunStats) ReduceOverlap() (hidden, exposed float64) {
	for _, ps := range rs.Procs {
		hidden += ps.ReduceHiddenTime
		exposed += ps.ReduceExposedTime
	}
	return hidden, exposed
}

// CommTime returns the modeled time the busiest processor spent in
// communication (send overhead plus waiting).
func (rs RunStats) CommTime() float64 {
	max := 0.0
	for _, ps := range rs.Procs {
		if t := ps.SendTime + ps.WaitTime; t > max {
			max = t
		}
	}
	return max
}

// FlopImbalance returns max/mean flops across processors (1.0 is
// perfectly balanced). Returns 1 when no flops were charged.
func (rs RunStats) FlopImbalance() float64 {
	if rs.TotalFlops == 0 {
		return 1
	}
	mean := float64(rs.TotalFlops) / float64(len(rs.Procs))
	return float64(rs.MaxFlops) / mean
}

type runCtx struct {
	mail  [][]chan message // mail[src][dst]
	bytes [][]int64        // bytes[src][dst]; row src written only by src's goroutine
	// dead[r].ch is closed once rank r will send nothing more: it
	// crashed, or it unwound because a rank it needed had. A peer blocked
	// on r then unwinds too — but only after draining what r did send, so
	// every survivor of an injected crash runs exactly as far as the
	// messages that exist let it. That makes a failed run (who died
	// when, which checkpoints were completed) a function of the modeled
	// schedule rather than of which goroutine noticed the failure first.
	dead []deadFlag
	// aborted is set (before every dead flag is raised) when the whole
	// run is being torn down: then a raised flag says nothing about its
	// rank, and whoever sees it just unwinds.
	aborted atomic.Bool
	// done is the run context's Done channel (nil for Run), polled by
	// Compute.
	done <-chan struct{}
	// shared backs Proc.Shared: key -> *sharedSlot.
	shared sync.Map
	// rdv is where an unobserved run's allreduces meet (rendezvous.go);
	// nil when a tracer or an injector is attached, and the tree's
	// messages are sent one by one.
	rdv *rendezvous
}

type sharedSlot struct {
	once sync.Once
	v    any
}

type deadFlag struct {
	ch   chan struct{}
	once sync.Once
}

func (rc *runCtx) markDead(rank int) {
	d := &rc.dead[rank]
	d.once.Do(func() { close(d.ch) })
}

// doAbort unwinds every rank at its next blocking point: the response
// to a programming-error panic and to the end of the run's context.
func (rc *runCtx) doAbort() {
	rc.aborted.Store(true)
	for r := range rc.dead {
		rc.markDead(r)
	}
}

// abortError marks panics injected into peers when some processor
// failed first; Run suppresses these in favour of the primary panic.
type abortError struct{}

func (abortError) Error() string { return "comm: aborted because a peer processor failed" }

// stopped is the error of a run its context ended. A passed deadline
// gets the deadlock diagnostic: mismatched collectives — the classic
// SPMD bug where one processor takes a different branch — hang forever
// under Run, and a deadline turns them into a diagnosable failure.
func stopped(err error) error {
	if errors.Is(err, context.Canceled) {
		return fmt.Errorf("comm: SPMD program cancelled: %w", err)
	}
	return fmt.Errorf("comm: SPMD program deadlocked (no completion before the deadline: %w); likely mismatched collectives or unmatched send/recv", err)
}

// Run executes fn on every processor concurrently (SPMD) and returns
// aggregate statistics. If any processor panics, Run re-panics with the
// first failure after all goroutines have stopped; an injected-fault
// failure panics with the typed PeerFailure (use RunContext to receive
// it as an error instead).
func (m *Machine) Run(fn func(p *Proc)) RunStats {
	rs, err := m.run(context.Background(), fn)
	if err != nil {
		panic(err)
	}
	return rs
}

// RunContext is Run bounded by ctx and for programs that may be killed
// by the fault layer. An injected crash or a lost message returns a
// typed PeerFailure error together with the partial run's statistics:
// the failed run's ModelTime is PeerFailure.Clock — the failure instant
// on the modeled clock, which the resilient solver accounts as lost
// work — and the per-rank stats include what each survivor did before
// it came to need the dead rank. When ctx ends first, every processor
// unwinds at its next communication or Compute and the error (with
// zero stats) wraps ctx.Err(); an already-ended ctx runs nothing. A run
// that completes keeps its result. Programming-error panics still
// propagate as panics.
func (m *Machine) RunContext(ctx context.Context, fn func(p *Proc)) (RunStats, error) {
	if err := ctx.Err(); err != nil {
		return RunStats{}, stopped(err)
	}
	return m.run(ctx, fn)
}

func (m *Machine) run(ctx context.Context, fn func(p *Proc)) (RunStats, error) {
	rc := &runCtx{
		mail:  make([][]chan message, m.np),
		bytes: make([][]int64, m.np),
		dead:  make([]deadFlag, m.np),
	}
	for s := 0; s < m.np; s++ {
		rc.mail[s] = make([]chan message, m.np)
		rc.bytes[s] = make([]int64, m.np)
		rc.dead[s].ch = make(chan struct{})
		for d := 0; d < m.np; d++ {
			if d != s { // no rank sends to itself
				rc.mail[s][d] = make(chan message, 8+m.np)
			}
		}
	}
	// Ranks blocked in communication learn that the context ended through
	// the abort; computing ranks poll done. context.AfterFunc allocates
	// even for a context that never ends, so Run's registers nothing.
	if rc.done = ctx.Done(); rc.done != nil {
		defer context.AfterFunc(ctx, rc.doAbort)()
	}

	var rec *trace.Recorder
	if m.tracer != nil {
		rec = m.tracer.StartRun(m.np)
	}
	var injs []RankInjector
	if m.inj != nil {
		injs = m.inj.StartRun(m.np)
	}
	if m.tracer == nil && m.inj == nil {
		rc.rdv = getRendezvous(m.np)
	}

	procs := make([]*Proc, m.np)
	panics := make([]any, m.np)
	var wg sync.WaitGroup
	for r := 0; r < m.np; r++ {
		p := &Proc{
			m: m, rc: rc, rank: r,
			pool:       make([][]float64, 0, poolCap),
			intPool:    make([][]int, 0, intPoolCap),
			lastFactor: 1,
		}
		if rec != nil {
			p.tr = rec.Rank(r)
		}
		if r < len(injs) && injs[r] != nil {
			p.inj = injs[r]
			if at, ok := p.inj.CrashTime(); ok {
				p.crashAt, p.hasCrash = at, true
			}
		}
		procs[r] = p
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					panics[rank] = e
					switch e.(type) {
					case crashPanic, PeerFailure, abortError:
						rc.markDead(rank)
					default:
						rc.doAbort()
					}
				}
			}()
			fn(procs[rank])
		}(r)
	}
	wg.Wait()

	// Classify the panics: a programming error on any rank always wins
	// and re-panics; injected-fault deaths (crashPanic from the dying
	// rank, PeerFailure from the receiver of a lost message) become the
	// run's error — the earliest on the modeled clock, whichever order
	// the goroutines died in; secondary abortErrors are suppressed, and
	// when they are all there is, the context ended the run.
	var bug any
	var fail *PeerFailure
	aborted := false
	consider := func(pf PeerFailure) {
		if fail == nil || pf.Clock < fail.Clock {
			fail = &pf
		}
	}
	for _, e := range panics {
		switch v := e.(type) {
		case nil:
		case abortError:
			aborted = true
		case crashPanic:
			consider(PeerFailure{Rank: v.rank, Clock: v.clock})
		case PeerFailure:
			consider(v)
		default:
			if bug == nil {
				bug = e
			}
		}
	}
	if bug != nil {
		panic(bug)
	}
	if rc.rdv != nil && fail == nil && !aborted {
		// Only a run every rank completed leaves its rendezvous with no
		// arrival pending and no wake token unread.
		putRendezvous(rc.rdv)
	}
	if fail == nil && aborted {
		return RunStats{}, stopped(ctx.Err())
	}

	var rs RunStats
	rs.Procs = make([]ProcStats, m.np)
	rs.BytesMatrix = rc.bytes
	for r, p := range procs {
		rs.Procs[r] = p.stats
		if p.clock > rs.ModelTime {
			rs.ModelTime = p.clock
		}
		rs.TotalMsgs += p.stats.MsgsSent
		rs.TotalBytes += p.stats.BytesSent
		rs.TotalMsgsRecv += p.stats.MsgsRecv
		rs.TotalBytesRecv += p.stats.BytesRecv
		rs.TotalFlops += p.stats.Flops
		if p.stats.Flops > rs.MaxFlops {
			rs.MaxFlops = p.stats.Flops
		}
	}
	var err error
	if fail != nil {
		// A failed run costs the modeled instant of the failure: what
		// the survivors computed while running on towards the dead rank
		// is discarded, and a restart's fault schedule resumes from here.
		rs.ModelTime = fail.Clock
		err = *fail
	}
	if rec != nil {
		rec.Seal(rs.ModelTime)
	}
	return rs, err
}

// Proc is one virtual processor inside a Run. All methods must be
// called from the goroutine Run started for this rank.
type Proc struct {
	m     *Machine
	rc    *runCtx
	rank  int
	clock float64
	seq   int // collective sequence number, for tag matching
	stats ProcStats
	tr    *trace.RankLog // nil unless a tracer is attached
	// inj is this rank's fault schedule (nil = healthy, hook-free).
	// crashAt/hasCrash cache the injected crash time so the hot-path
	// check is two loads and a compare; lastFactor tracks straggle
	// transitions for the trace markers.
	inj        RankInjector
	crashAt    float64
	hasCrash   bool
	lastFactor float64
	// pool/intPool hold recycled scratch buffers (see GetBuf). They are
	// owned by this rank's goroutine, so no locking is needed.
	pool    [][]float64
	intPool [][]int
	// handles is the freelist of recycled nonblocking-collective
	// handles (see IallreduceScalars), also goroutine-owned.
	handles []*ReduceHandle
	// parts holds the blocks ReduceScatterSum has received until its
	// ordered sum, also goroutine-owned.
	parts [][]float64
}

// Rank returns this processor's rank in [0, NP).
func (p *Proc) Rank() int { return p.rank }

// NP returns the number of processors in the machine.
func (p *Proc) NP() int { return p.m.np }

// Clock returns the processor's current modeled time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// Stats returns a copy of the processor's accounting so far.
func (p *Proc) Stats() ProcStats { return p.stats }

// Compute charges flops floating-point operations to the modeled
// clock. An attached injector can stretch the charge (straggler) or
// kill the rank once its clock passes the scheduled crash time. Compute
// is also where a rank that never blocks — any rank at np = 1 — sees
// that the run's context ended. It reads the context's Done channel
// itself rather than waiting for the abort, so a rank that ends its own
// run's context stops at its next Compute.
func (p *Proc) Compute(flops int) {
	if flops <= 0 {
		return
	}
	if p.rc.done != nil {
		select {
		case <-p.rc.done:
			panic(abortError{})
		default:
		}
	}
	start := p.clock
	dt := float64(flops) * p.m.cost.TFlop
	if p.inj != nil {
		dt *= p.straggleFactor(start)
	}
	p.chargeCompute(flops, dt)
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindCompute, Peer: -1, Flops: flops, Start: start, End: p.clock})
	}
	p.checkCrash()
}

// chargeCompute books flops taking modeled time dt. Compute and the
// allreduce replay both charge through it.
func (p *Proc) chargeCompute(flops int, dt float64) {
	p.clock += dt
	p.stats.ComputeTime += dt
	p.stats.Flops += int64(flops)
}

// Shared returns the value build produces for key, computed once per
// run by whichever rank asks first and handed to every rank that asks
// with an equal key. It is an economy of the simulator, not a feature of
// the modeled machine: ranks that redundantly compute the same
// deterministic read-only object (multigrid's coarsest-grid factor) hold
// one copy of it in the host's memory instead of NP. The modeled clock
// is untouched, so a caller still charges every rank the flops of
// computing the value itself. build must not call into p, and no rank
// may write to the value afterwards, with one exception: the value may
// carry a lock-guarded memo of a pure function of inputs every rank
// holds identically (multigrid's bottom solve of the gathered coarse
// residual), so the first rank to ask computes it and the rest read the
// bits they would have computed. Keyed on the input's bits, such a memo
// assumes nothing about how ranks interleave, and its caller still
// charges every rank the flops. Keys of a package-private type cannot
// collide across packages.
func (p *Proc) Shared(key any, build func() any) any {
	v, _ := p.rc.shared.LoadOrStore(key, &sharedSlot{})
	slot := v.(*sharedSlot)
	slot.once.Do(func() { slot.v = build() })
	return slot.v
}

// collEnd records a collective span [start, now) when tracing is on.
// Collectives call it via `defer p.collEnd(op, p.clock)`, which pins
// start at entry time while End reads the clock at return — including
// on the early-return path of the tree reduce.
func (p *Proc) collEnd(op string, start float64) {
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindCollective, Peer: -1, Op: op, Start: start, End: p.clock})
	}
}

// maxUserTag bounds user point-to-point tags; collective traffic uses
// tags above this.
const maxUserTag = 1 << 20

// Send transmits pl to processor dst with the given tag. Sends are
// buffered (asynchronous): the sender is charged only the start-up
// overhead t_s; transfer time is charged to the receiver on arrival.
func (p *Proc) Send(dst, tag int, pl Payload) {
	if dst < 0 || dst >= p.m.np {
		panic(fmt.Sprintf("comm: Send to invalid rank %d (np=%d)", dst, p.m.np))
	}
	if dst == p.rank {
		panic("comm: Send to self")
	}
	p.checkCrash()
	start := p.clock
	p.chargeSend(dst, pl.Bytes())
	msg := message{
		tag:    tag,
		pl:     pl,
		depart: p.clock,
		hops:   int32(p.m.topo.Distance(p.rank, dst, p.m.np)),
	}
	if p.tr != nil {
		p.tr.Add(trace.Event{Kind: trace.KindSend, Peer: dst, Tag: tag, Bytes: pl.Bytes(), Start: start, End: p.clock})
	}
	if p.inj != nil {
		drop, delay := p.inj.SendFault(dst, p.clock, float64(msg.hops)*p.m.cost.THop)
		if drop {
			// The sender paid the start-up overhead and believes the
			// message left; the network lost it. A marker keeps its place
			// in the link's order, so the receiver fails on it instead of
			// reading the sender's next message in its stead.
			if p.tr != nil {
				p.tr.Add(trace.Event{Kind: trace.KindFault, Peer: dst, Tag: tag, Bytes: pl.Bytes(), Op: "drop", Start: p.clock, End: p.clock})
			}
			msg = message{lost: true}
		} else if delay > 0 {
			msg.delay = delay
			if p.tr != nil {
				p.tr.Add(trace.Event{Kind: trace.KindFault, Peer: dst, Tag: tag, Op: "spike", Start: p.clock, End: p.clock})
			}
		}
	}
	select {
	case p.rc.mail[p.rank][dst] <- msg:
	case <-p.rc.dead[dst].ch:
		if p.rc.aborted.Load() {
			panic(abortError{})
		}
		// The reader is gone, so the message is lost — which only this
		// rank's next Recv can make matter.
	}
}

// Recv blocks until a message from src with the expected tag arrives
// and returns its payload. Messages between a pair of processors are
// delivered in order; a tag mismatch indicates a protocol error and
// panics. Reaching the place of a message the fault layer dropped
// fails this rank with a PeerFailure blaming src at the current
// modeled instant.
func (p *Proc) Recv(src, tag int) Payload {
	if src < 0 || src >= p.m.np {
		panic(fmt.Sprintf("comm: Recv from invalid rank %d (np=%d)", src, p.m.np))
	}
	if src == p.rank {
		panic("comm: Recv from self")
	}
	p.checkCrash()
	start := p.clock
	var msg message
	select {
	case msg = <-p.rc.mail[src][p.rank]:
	case <-p.rc.dead[src].ch:
		msg = p.lastWords(src)
	}
	if msg.lost {
		if p.tr != nil {
			p.tr.Add(trace.Event{Kind: trace.KindFault, Peer: src, Op: "lost", Start: p.clock, End: p.clock})
		}
		panic(PeerFailure{Rank: src, Clock: p.clock})
	}
	if msg.tag != tag {
		panic(fmt.Sprintf("comm: rank %d expected tag %d from %d, got %d", p.rank, tag, src, msg.tag))
	}
	// The head of the message arrives after the network latency; the
	// body then occupies the receiver's link for bytes*t_w. Charging the
	// transfer on the receiver serialises concurrent incoming messages
	// (finite receive bandwidth, as in the LogGP model) — without this,
	// an all-to-all would absorb NP-1 transfers for the price of one.
	// msg.delay is the fault layer's injected latency (0 when healthy).
	head := msg.depart + float64(msg.hops)*p.m.cost.THop + msg.delay
	p.chargeRecv(head, msg.pl.Bytes())
	if p.tr != nil {
		p.tr.Add(trace.Event{
			Kind: trace.KindRecv, Peer: src, Tag: msg.tag, Bytes: msg.pl.Bytes(),
			Start: start, End: p.clock, Depart: msg.depart, Head: head,
		})
	}
	return msg.pl
}

// chargeSend books one message of b bytes to dst on the sender: the
// start-up overhead t_s on its clock and the message in its counts and
// in the communication matrix. Send and the allreduce replay
// (rendezvous.go) both charge through it.
func (p *Proc) chargeSend(dst, b int) {
	p.clock += p.m.cost.TStartup
	p.stats.SendTime += p.m.cost.TStartup
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(b)
	p.rc.bytes[p.rank][dst] += int64(b)
}

// chargeRecv books one received message of b bytes whose head arrives
// at modeled time head: the receiver waits for the head, then its link
// carries the body for b·t_w. Recv and the allreduce replay both charge
// through it.
func (p *Proc) chargeRecv(head float64, b int) {
	if head > p.clock {
		p.stats.WaitTime += head - p.clock
		p.clock = head
	}
	body := float64(b) * p.m.cost.TByte
	p.clock += body
	p.stats.WaitTime += body
	p.stats.MsgsRecv++
	p.stats.BytesRecv += int64(b)
}

// lastWords returns the next message src sent before it died, or
// unwinds this rank when there is none. src's sends happen before its
// dead flag closes, so whatever it sent is already in the mailbox.
func (p *Proc) lastWords(src int) message {
	if !p.rc.aborted.Load() {
		select {
		case msg := <-p.rc.mail[src][p.rank]:
			return msg
		default:
		}
	}
	panic(abortError{})
}

// SendFloats sends a float slice (the slice is not copied; the caller
// must not mutate it afterwards within the same superstep).
func (p *Proc) SendFloats(dst, tag int, x []float64) { p.Send(dst, tag, Payload{Floats: x}) }

// RecvFloats receives a float slice sent with SendFloats.
func (p *Proc) RecvFloats(src, tag int) []float64 { return p.Recv(src, tag).Floats }

// nextTag returns a fresh tag for one collective operation. All ranks
// execute collectives in the same order, so sequence numbers agree.
func (p *Proc) nextTag(op int) int {
	p.seq++
	return maxUserTag + p.seq*16 + op
}

const (
	opBarrier = iota
	opBcast
	opReduce
	_ // reserved, so the ops below keep the tag values traces record
	opScatter
	opAllgather
	opAlltoall
)
