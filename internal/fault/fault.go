// Package fault is the deterministic fault-injection layer of the SPMD
// machine: a seed-driven Plan of crash, straggler, message-drop and
// link-latency-spike events, and an Injector that drives them through
// comm.Machine.AttachInjector. All schedules are expressed on the
// *modeled* clock — a crash fires when the affected rank's simulated
// time reaches the scheduled instant, never when wall time does — so a
// faulty run is exactly as reproducible as a healthy one: same plan,
// same seed, same machine ⇒ bit-identical failure point, recovery
// trajectory, and cost accounting.
//
// Plans are written against *mission time*: the modeled clock of the
// whole solve, accumulated across restarts. After a run dies the
// driver calls Injector.Advance with the failed run's modeled time;
// events already in the past are consumed (a crash fires once) and the
// remaining schedule shifts so the next run picks up where the mission
// left off.
package fault

import (
	"fmt"
	"math"
	"math/rand"

	"hpfcg/internal/comm"
)

// Kind classifies one scheduled fault.
type Kind uint8

const (
	// Crash kills the rank when its modeled clock reaches At.
	Crash Kind = iota
	// Straggle multiplies the rank's per-flop cost by Factor inside
	// the window [At, Until).
	Straggle
	// Drop silently discards the next Count messages the rank sends
	// (to Dst, or to anyone when Dst < 0) from mission time At on.
	Drop
	// Spike inflates the network latency of messages the rank sends
	// inside [At, Until): hop latency multiplied by Factor (when
	// Factor > 1) plus a fixed Delay seconds.
	Spike
)

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Straggle:
		return "straggle"
	case Drop:
		return "drop"
	case Spike:
		return "spike"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled fault. Times are mission-modeled seconds.
type Event struct {
	Kind Kind
	// Rank is the affected processor.
	Rank int
	// At is when the fault starts (crash instant, window open).
	At float64
	// Until closes the Straggle/Spike window; 0 means never.
	Until float64
	// Factor is the Straggle flop-cost multiplier, or the Spike hop-
	// latency multiplier (0 = no multiplicative part for Spike).
	Factor float64
	// Delay is the fixed extra latency of a Spike, seconds.
	Delay float64
	// Count is how many messages a Drop discards (0 means 1).
	Count int
	// Dst restricts Drop/Spike to messages toward one destination
	// rank; negative means any destination.
	Dst int
}

// Plan is a complete, deterministic fault schedule.
type Plan struct {
	Events []Event
}

// Validate checks the plan is well-formed.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		at := func(msg string, args ...any) error {
			return fmt.Errorf("fault: event %d (%s): %s", i, e.Kind, fmt.Sprintf(msg, args...))
		}
		if e.Rank < 0 {
			return at("rank is required (got %d)", e.Rank)
		}
		for _, v := range []float64{e.At, e.Until, e.Factor, e.Delay} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return at("non-finite value %g", v)
			}
		}
		if e.At < 0 {
			return at("negative start time %g", e.At)
		}
		if e.Until != 0 && e.Until <= e.At {
			return at("until=%g is not after t=%g", e.Until, e.At)
		}
		switch e.Kind {
		case Crash:
		case Straggle:
			if e.Factor <= 0 {
				return at("straggle factor x=%g must be positive", e.Factor)
			}
		case Drop:
			if e.Count < 0 {
				return at("negative drop count n=%d", e.Count)
			}
		case Spike:
			if e.Factor < 0 {
				return at("negative spike factor x=%g", e.Factor)
			}
			if e.Factor <= 1 && e.Delay <= 0 {
				return at("spike needs x>1 or delay>0")
			}
		default:
			return at("unknown kind")
		}
	}
	return nil
}

// RandomPlan draws a reproducible crash schedule: a Poisson process of
// rank crashes with the given mean time between failures, over mission
// [0, horizon), each crash striking a uniformly random rank. The same
// (seed, np, mtbf, horizon) always yields the same plan — this is the
// seeded schedule experiment E20 sweeps.
func RandomPlan(seed int64, np int, mtbf, horizon float64) Plan {
	rng := rand.New(rand.NewSource(seed))
	var plan Plan
	t := 0.0
	for {
		t += rng.ExpFloat64() * mtbf
		if t >= horizon {
			return plan
		}
		plan.Events = append(plan.Events, Event{Kind: Crash, Rank: rng.Intn(np), At: t, Dst: -1})
	}
}

// Injector replays a Plan against a comm.Machine. It carries the
// mission clock across restarts: Advance consumes the modeled time of
// a failed run, so crashes already delivered do not fire again and
// windowed faults keep their mission-time position. An Injector may be
// reused across sequential runs but not shared by concurrent ones.
type Injector struct {
	plan      Plan
	offset    float64 // mission seconds consumed by completed/failed runs
	crashDone []bool  // per-event: crash already delivered
	dropLeft  []int   // per-event: messages still to drop
}

// NewInjector validates the plan and builds its injector.
func NewInjector(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{
		plan:      plan,
		crashDone: make([]bool, len(plan.Events)),
		dropLeft:  make([]int, len(plan.Events)),
	}
	for i, e := range plan.Events {
		if e.Kind == Drop {
			n := e.Count
			if n == 0 {
				n = 1
			}
			in.dropLeft[i] = n
		}
	}
	return in, nil
}

// Advance moves the mission clock forward by the modeled time of a
// finished (usually failed) run. Crash events now in the past are
// consumed: the processor already died once; after the restart it is
// healthy until its next scheduled failure. A resilient hpfexec solve
// calls this between attempts.
func (in *Injector) Advance(elapsed float64) {
	if elapsed < 0 {
		panic(fmt.Sprintf("fault: Advance with negative elapsed %g", elapsed))
	}
	in.offset += elapsed
	for i, e := range in.plan.Events {
		if e.Kind == Crash && e.At <= in.offset {
			in.crashDone[i] = true
		}
	}
}

// StartRun implements comm.Injector: one RankInjector per rank holding
// that rank's schedule translated from mission time into the run's
// local modeled clock (mission minus offset). Ranks without events get
// a nil entry, which keeps them on the machine's hook-free path.
// Events addressed to ranks outside [0, np) are ignored.
func (in *Injector) StartRun(np int) []comm.RankInjector {
	out := make([]comm.RankInjector, np)
	ris := make([]*rankInj, np)
	get := func(r int) *rankInj {
		if ris[r] == nil {
			ris[r] = &rankInj{in: in}
			out[r] = ris[r]
		}
		return ris[r]
	}
	for i, e := range in.plan.Events {
		if e.Rank < 0 || e.Rank >= np {
			continue
		}
		from := e.At - in.offset
		to := math.Inf(1)
		if e.Until != 0 {
			to = e.Until - in.offset
		}
		if to <= 0 {
			continue // window entirely in the mission's past
		}
		switch e.Kind {
		case Crash:
			if in.crashDone[i] {
				continue
			}
			ri := get(e.Rank)
			at := from
			if at < 0 {
				at = 0
			}
			if !ri.hasCrash || at < ri.crashAt {
				ri.crashAt, ri.hasCrash = at, true
			}
		case Straggle:
			get(e.Rank).straggles = append(get(e.Rank).straggles, window{from, to, e.Factor})
		case Drop:
			if in.dropLeft[i] <= 0 {
				continue
			}
			get(e.Rank).drops = append(get(e.Rank).drops, dropWin{from: from, to: to, dst: e.Dst, idx: i})
		case Spike:
			get(e.Rank).spikes = append(get(e.Rank).spikes, spikeWin{from: from, to: to, factor: e.Factor, delay: e.Delay, dst: e.Dst})
		}
	}
	return out
}

type window struct{ from, to, factor float64 }

type dropWin struct {
	from, to float64
	dst      int
	idx      int // index into Injector.dropLeft
}

type spikeWin struct {
	from, to      float64
	factor, delay float64
	dst           int
}

// rankInj is one rank's translated schedule for one run. It is
// consulted only from that rank's goroutine; the only shared state it
// touches is the injector's dropLeft counter for its own events, which
// no other rank references.
type rankInj struct {
	in        *Injector
	crashAt   float64
	hasCrash  bool
	straggles []window
	drops     []dropWin
	spikes    []spikeWin
}

// CrashTime implements comm.RankInjector.
func (ri *rankInj) CrashTime() (float64, bool) { return ri.crashAt, ri.hasCrash }

// FlopFactor implements comm.RankInjector: the product of all straggle
// windows open at run-local modeled time t.
func (ri *rankInj) FlopFactor(t float64) float64 {
	f := 1.0
	for _, w := range ri.straggles {
		if t >= w.from && t < w.to {
			f *= w.factor
		}
	}
	return f
}

// SendFault implements comm.RankInjector: consume a pending drop if
// one matches, otherwise sum the extra latency of open spike windows.
func (ri *rankInj) SendFault(dst int, t, hopTime float64) (bool, float64) {
	for _, d := range ri.drops {
		if ri.in.dropLeft[d.idx] > 0 && t >= d.from && t < d.to && (d.dst < 0 || d.dst == dst) {
			ri.in.dropLeft[d.idx]--
			return true, 0
		}
	}
	delay := 0.0
	for _, s := range ri.spikes {
		if t >= s.from && t < s.to && (s.dst < 0 || s.dst == dst) {
			if s.factor > 1 {
				delay += (s.factor - 1) * hopTime
			}
			delay += s.delay
		}
	}
	return false, delay
}

var _ comm.Injector = (*Injector)(nil)
