package comm

import (
	"context"
	"errors"
	"testing"
	"time"
)

// stubRank is a hand-rolled RankInjector for machine-level fault tests
// (package fault has its own schedule logic and tests; here we drive
// the hooks directly).
type stubRank struct {
	crashAt  float64
	hasCrash bool
	factor   float64 // 0 = healthy
	delay    float64
	drops    int // the rank's next drops sends are lost
}

func (s *stubRank) CrashTime() (float64, bool) { return s.crashAt, s.hasCrash }

func (s *stubRank) FlopFactor(t float64) float64 {
	if s.factor == 0 {
		return 1
	}
	return s.factor
}

func (s *stubRank) SendFault(dst int, t, hop float64) (bool, float64) {
	if s.drops > 0 {
		s.drops--
		return true, 0
	}
	return false, s.delay
}

type stubInjector struct{ ranks map[int]*stubRank }

func (s stubInjector) StartRun(np int) []RankInjector {
	out := make([]RankInjector, np)
	for r, ri := range s.ranks {
		if r < np {
			out[r] = ri
		}
	}
	return out
}

// TestCrashMidAllreduceUnwinds is the abort-propagation regression
// test: killing one rank halfway through a run leaves its peers
// blocked in Recv inside the tree allreduce, and they must observe the
// abort and unwind into a typed PeerFailure — at every np, including
// non-powers-of-two, with no deadlock.
func TestCrashMidAllreduceUnwinds(t *testing.T) {
	for _, np := range []int{2, 3, 4, 8} {
		prog := func(p *Proc) {
			buf := make([]float64, 64)
			for i := range buf {
				buf[i] = float64(p.Rank() + i)
			}
			for i := 0; i < 4; i++ {
				p.Compute(200)
				p.AllreduceScalars(buf, OpSum)
			}
		}
		healthy := testMachine(np).Run(prog)
		victim := np / 2
		m := testMachine(np)
		m.AttachInjector(stubInjector{ranks: map[int]*stubRank{
			victim: {crashAt: healthy.ModelTime / 2, hasCrash: true},
		}})
		_, err := m.RunContext(within(t, 5*time.Second), prog)
		var pf PeerFailure
		if !errors.As(err, &pf) {
			t.Fatalf("np=%d: err = %v, want PeerFailure", np, err)
		}
		if pf.Rank != victim {
			t.Errorf("np=%d: failed rank = %d, want %d", np, pf.Rank, victim)
		}
		if pf.Clock < healthy.ModelTime/2 {
			t.Errorf("np=%d: failure clock %g before scheduled crash %g",
				np, pf.Clock, healthy.ModelTime/2)
		}
	}
}

// TestSpikeDelaysMessage: an injected latency spike shows up 1:1 in
// the modeled makespan (the receiver waits for the delayed head), and
// a spiked-but-delivered run completes without error.
func TestSpikeDelaysMessage(t *testing.T) {
	prog := func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(1, 1, []float64{1, 2, 3})
		} else {
			p.RecvFloats(0, 1)
		}
	}
	base := testMachine(2).Run(prog)
	m := testMachine(2)
	m.AttachInjector(stubInjector{ranks: map[int]*stubRank{
		0: {delay: 0.5},
	}})
	rs, err := m.RunContext(context.Background(), prog)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if got, want := rs.ModelTime-base.ModelTime, 0.5; got != want {
		t.Errorf("spike added %g modeled seconds, want %g", got, want)
	}
}

// TestStraggleStretchesCompute: the flop-cost multiplier scales the
// straggler's modeled compute time exactly, leaving peers untouched.
func TestStraggleStretchesCompute(t *testing.T) {
	m := testMachine(2)
	m.AttachInjector(stubInjector{ranks: map[int]*stubRank{
		0: {factor: 4},
	}})
	rs, err := m.RunContext(context.Background(), func(p *Proc) {
		p.Compute(1000)
	})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if got, want := rs.Procs[0].ComputeTime, 4*rs.Procs[1].ComputeTime; got != want {
		t.Errorf("straggler compute time = %g, want 4x healthy %g", got, rs.Procs[1].ComputeTime)
	}
}

// TestRunContextHealthy: with no injector the checked form behaves
// exactly like Run — nil error, same accounting.
func TestRunContextHealthy(t *testing.T) {
	prog := func(p *Proc) {
		x := p.AllreduceScalar(float64(p.Rank()), OpSum)
		if x != 1+2+3 {
			t.Errorf("allreduce = %g, want 6", x)
		}
	}
	want := testMachine(4).Run(prog)
	rs, err := testMachine(4).RunContext(context.Background(), prog)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if rs.ModelTime != want.ModelTime {
		t.Errorf("ModelTime %g != Run's %g", rs.ModelTime, want.ModelTime)
	}
}

// TestNilInjectorNoAllocs is the zero-overhead guard on the fault
// hooks themselves: with no injector attached, steady-state Send and
// Compute must not touch the heap (the injector checks are two loads
// and a branch). AllocsPerRun counts process-wide allocations.
func TestNilInjectorNoAllocs(t *testing.T) {
	const runs = 7
	m := testMachine(2)
	pl := Payload{Floats: make([]float64, 64)}
	var sendAllocs, computeAllocs float64
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 3, pl)
			sendAllocs = testing.AllocsPerRun(runs, func() {
				p.Send(1, 3, pl)
			})
			computeAllocs = testing.AllocsPerRun(runs, func() {
				p.Compute(100)
			})
		} else {
			for i := 0; i < runs+2; i++ {
				p.Recv(0, 3)
			}
		}
	})
	if sendAllocs != 0 {
		t.Errorf("Send allocated %.1f times per call with nil injector, want 0", sendAllocs)
	}
	if computeAllocs != 0 {
		t.Errorf("Compute allocated %.1f times per call with nil injector, want 0", computeAllocs)
	}
}
