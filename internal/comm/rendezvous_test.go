package comm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"hpfcg/internal/trace"
)

// runOutcome is what a run of hygieneProgram leaves: each rank's value,
// the run's stats, and per rank its *Proc, whether its allreduces met
// at a rendezvous, and whether it started with empty buffer pools and
// no parts of an earlier reduce-scatter.
type runOutcome struct {
	vals  []float64
	rs    RunStats
	procs []*Proc
	rdv   []bool
	empty []bool
}

// hygieneProgram runs on m a program that touches every piece of run
// state a Proc carries: a point-to-point ring, the pooled
// ReduceScatterSum (its received parts and both buffer pools), a
// rendezvous allreduce and a nonblocking one (the handle freelist).
// seed varies the values, not the communication.
func hygieneProgram(m *Machine, seed float64) runOutcome {
	out, body := hygieneBody(m.NP(), seed)
	out.rs = m.Run(body)
	return out
}

// hygieneBody is hygieneProgram's SPMD body, recording into out.
func hygieneBody(np int, seed float64) (out runOutcome, body func(p *Proc)) {
	out = runOutcome{vals: make([]float64, np), procs: make([]*Proc, np), rdv: make([]bool, np), empty: make([]bool, np)}
	counts := make([]int, np)
	for r := range counts {
		counts[r] = r + 1
	}
	return out, func(p *Proc) {
		r := p.Rank()
		out.procs[r], out.rdv[r] = p, p.rc.rdv != nil
		out.empty[r] = len(p.pool) == 0 && len(p.intPool) == 0
		for _, part := range p.parts {
			out.empty[r] = out.empty[r] && part == nil
		}
		p.Compute(10 * (r + 1))
		p.SendFloats((r+1)%np, 7, []float64{seed + float64(r)})
		v := seed + p.RecvFloats((r+np-1)%np, 7)[0]
		full := make([]float64, np*(np+1)/2)
		for i := range full {
			full[i] = seed*float64(i) + 1/float64(r+3)
		}
		part := make([]float64, r+1)
		p.ReduceScatterSum(full, counts, part)
		v += p.AllreduceScalar(part[r]/float64(r+2), OpSum)
		xs := []float64{v, math.Sqrt(float64(r + 2))}
		p.IallreduceScalars(xs, OpMax).Wait()
		out.vals[r] = v + xs[0]*xs[1]
	}
}

// sameOutcome reports where got differs from want: the values, the
// modeled time, every rank's stats and the communication matrix, all
// by their bits.
func sameOutcome(t *testing.T, name string, got, want runOutcome) {
	t.Helper()
	for r := range want.vals {
		if math.Float64bits(got.vals[r]) != math.Float64bits(want.vals[r]) {
			t.Errorf("%s: rank %d value %v, fresh machine %v", name, r, got.vals[r], want.vals[r])
		}
		if !sameStats(got.rs.Procs[r], want.rs.Procs[r]) {
			t.Errorf("%s: rank %d stats %+v, fresh machine %+v", name, r, got.rs.Procs[r], want.rs.Procs[r])
		}
		for d := range want.rs.BytesMatrix[r] {
			if got.rs.BytesMatrix[r][d] != want.rs.BytesMatrix[r][d] {
				t.Errorf("%s: bytes %d->%d = %d, fresh machine %d", name, r, d, got.rs.BytesMatrix[r][d], want.rs.BytesMatrix[r][d])
			}
		}
	}
	if math.Float64bits(got.rs.ModelTime) != math.Float64bits(want.rs.ModelTime) || got.rs.TotalMsgs != want.rs.TotalMsgs {
		t.Errorf("%s: t=%v msgs=%d, fresh machine t=%v msgs=%d", name, got.rs.ModelTime, got.rs.TotalMsgs, want.rs.ModelTime, want.rs.TotalMsgs)
	}
}

// TestRendezvousUnwinds: a machine's processors outlive its runs, and
// no run leaves state behind for the next. On one machine, a fixed
// program runs after each of an injected crash, a dropped message, a
// traced run, a run a deadline ends while ranks wait at a rendezvous
// (one rank skips the allreduce: the deadlock diagnostic), and a
// programming-error panic while peers wait (it re-panics from Run).
// Each following run is bit-equal to the program on a fresh machine,
// runs on the same *Procs, and meets at the rendezvous again once the
// tracer and the injector are detached.
func TestRendezvousUnwinds(t *testing.T) {
	for _, np := range []int{3, 4} {
		want := hygieneProgram(testMachine(np), 1.5)
		m := testMachine(np)
		first := hygieneProgram(m, 1.5)
		sameOutcome(t, "first run", first, want)
		check := func(name string) {
			t.Helper()
			got := hygieneProgram(m, 1.5)
			sameOutcome(t, name, got, want)
			for r, p := range got.procs {
				if p != first.procs[r] {
					t.Errorf("np=%d %s: rank %d runs on a new *Proc", np, name, r)
				}
				if !got.rdv[r] {
					t.Errorf("np=%d %s: rank %d's allreduces took the message path", np, name, r)
				}
				if !got.empty[r] {
					t.Errorf("np=%d %s: rank %d started with buffers of an earlier run", np, name, r)
				}
			}
		}
		fails := func(name string, inj Injector, blamed int) {
			t.Helper()
			m.AttachInjector(inj)
			_, body := hygieneBody(np, 1.5)
			_, err := m.RunContext(within(t, 5*time.Second), body)
			m.AttachInjector(nil)
			var pf PeerFailure
			if !errors.As(err, &pf) || pf.Rank != blamed {
				t.Fatalf("np=%d %s: err = %v, want a PeerFailure blaming %d", np, name, err, blamed)
			}
			check("after the " + name)
		}

		fails("crash", stubInjector{ranks: map[int]*stubRank{
			1: {crashAt: want.rs.ModelTime / 2, hasCrash: true},
		}}, 1)
		// Rank 2's sends after the lost one are late: a rank that kept
		// this schedule would show it on the next run's clocks.
		fails("drop", stubInjector{ranks: map[int]*stubRank{2: {drops: 1, delay: 1e-3}}}, 2)

		var tr trace.Tracer
		m.AttachTracer(&tr)
		traced := hygieneProgram(m, 1.5)
		m.AttachTracer(nil)
		sameOutcome(t, "traced", traced, want)
		events := tr.Last().NumEvents()
		check("after the traced run")
		if n := tr.Last().NumEvents(); n != events {
			t.Errorf("np=%d: the detached tracer's run grew from %d to %d events", np, events, n)
		}

		start := time.Now()
		_, err := m.RunContext(within(t, 100*time.Millisecond), func(p *Proc) {
			if p.Rank() != np-1 {
				p.AllreduceScalars(make([]float64, 1), OpSum)
			}
		})
		if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "deadlocked") {
			t.Fatalf("np=%d skipped allreduce: err = %v, want the deadlock diagnostic", np, err)
		}
		if wall := time.Since(start); wall > 5*time.Second {
			t.Errorf("np=%d: a 100ms deadline took %v to stop the run", np, wall)
		}
		check("after the deadline")

		func() {
			defer func() {
				if e := recover(); e != "kaboom" {
					t.Errorf("np=%d panic while peers wait: recovered %v, want kaboom", np, e)
				}
			}()
			m.Run(func(p *Proc) {
				if p.Rank() == 2 {
					panic("kaboom")
				}
				p.AllreduceScalars(make([]float64, 2), OpSum)
			})
		}()
		check("after the panic")
	}
}

// TestConcurrentRunsTakeTurns: two goroutines running one machine at
// once each get what the program gives run alone on a fresh machine —
// the runs share the machine's processors, so they take turns.
func TestConcurrentRunsTakeTurns(t *testing.T) {
	const np, reps = 4, 8
	seeds := []float64{1.5, -0.25}
	want := make([]runOutcome, len(seeds))
	for i, seed := range seeds {
		want[i] = hygieneProgram(testMachine(np), seed)
	}
	m := testMachine(np)
	var wg sync.WaitGroup
	got := make([][]runOutcome, len(seeds))
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed float64) {
			defer wg.Done()
			for k := 0; k < reps; k++ {
				got[i] = append(got[i], hygieneProgram(m, seed))
			}
		}(i, seed)
	}
	wg.Wait()
	for i := range seeds {
		for k, g := range got[i] {
			sameOutcome(t, fmt.Sprintf("seed %v run %d", seeds[i], k), g, want[i])
		}
	}
}
