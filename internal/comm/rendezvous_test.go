package comm

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// TestRendezvousUnwinds: ranks waiting at an allreduce's rendezvous
// unwind with the run. A deadline ends a run where one rank skips the
// allreduce with the deadlock diagnostic, and a programming-error panic
// on one rank while the others wait re-panics from Run. Neither leaves
// its pending arrivals or wake tokens to the next run on the same NP,
// which must be bit-equal to one made before them.
func TestRendezvousUnwinds(t *testing.T) {
	const np = 4
	m := testMachine(np)
	type outcome struct {
		vals []float64
		rs   RunStats
	}
	normal := func() outcome {
		vals := make([]float64, np)
		rs := m.Run(func(p *Proc) {
			p.Compute(10 * (p.Rank() + 1))
			v := p.AllreduceScalar(1/float64(p.Rank()+3), OpSum)
			xs := []float64{v, math.Sqrt(float64(p.Rank() + 2))}
			p.IallreduceScalars(xs, OpMax).Wait()
			vals[p.Rank()] = v + xs[0]*xs[1]
		})
		return outcome{vals, rs}
	}
	same := func(name string, got, want outcome) {
		t.Helper()
		for r := range want.vals {
			if math.Float64bits(got.vals[r]) != math.Float64bits(want.vals[r]) {
				t.Errorf("%s: rank %d value %v, fresh run %v", name, r, got.vals[r], want.vals[r])
			}
			if !sameStats(got.rs.Procs[r], want.rs.Procs[r]) {
				t.Errorf("%s: rank %d stats %+v, fresh run %+v", name, r, got.rs.Procs[r], want.rs.Procs[r])
			}
		}
		if math.Float64bits(got.rs.ModelTime) != math.Float64bits(want.rs.ModelTime) || got.rs.TotalMsgs != want.rs.TotalMsgs {
			t.Errorf("%s: t=%v msgs=%d, fresh run t=%v msgs=%d", name, got.rs.ModelTime, got.rs.TotalMsgs, want.rs.ModelTime, want.rs.TotalMsgs)
		}
	}
	fresh := normal()

	start := time.Now()
	_, err := m.RunContext(within(t, 100*time.Millisecond), func(p *Proc) {
		if p.Rank() != np-1 {
			p.AllreduceScalars(make([]float64, 1), OpSum)
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "deadlocked") {
		t.Fatalf("skipped allreduce: err = %v, want the deadlock diagnostic", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("a 100ms deadline took %v to stop the run", wall)
	}
	same("after the deadline", normal(), fresh)

	func() {
		defer func() {
			if e := recover(); e != "kaboom" {
				t.Errorf("panic while peers wait: recovered %v, want kaboom", e)
			}
		}()
		m.Run(func(p *Proc) {
			if p.Rank() == 2 {
				panic("kaboom")
			}
			p.AllreduceScalars(make([]float64, 2), OpSum)
		})
	}()
	same("after the panic", normal(), fresh)
}
