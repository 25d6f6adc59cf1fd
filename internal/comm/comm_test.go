package comm

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"hpfcg/internal/topology"
)

func testMachine(np int) *Machine {
	return NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

var testNPs = []int{1, 2, 3, 4, 5, 7, 8, 16}

func TestRunSPMD(t *testing.T) {
	for _, np := range testNPs {
		m := testMachine(np)
		var visited int64
		m.Run(func(p *Proc) {
			if p.NP() != np {
				t.Errorf("NP() = %d, want %d", p.NP(), np)
			}
			atomic.AddInt64(&visited, 1)
		})
		if visited != int64(np) {
			t.Errorf("np=%d: %d procs ran", np, visited)
		}
	}
}

func TestSendRecv(t *testing.T) {
	m := testMachine(4)
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(1, 7, []float64{1, 2, 3})
		}
		if p.Rank() == 1 {
			f := p.RecvFloats(0, 7)
			if !reflect.DeepEqual(f, []float64{1, 2, 3}) {
				t.Errorf("RecvFloats = %v", f)
			}
		}
	})
}

func TestSendAdvancesClock(t *testing.T) {
	m := testMachine(2)
	stats := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(1, 1, make([]float64, 1000))
		} else {
			p.RecvFloats(0, 1)
		}
	})
	c := m.Cost()
	wantArrive := c.TStartup + 1*c.THop + 8000*c.TByte
	if math.Abs(stats.ModelTime-wantArrive) > 1e-12 {
		t.Errorf("ModelTime = %g, want %g", stats.ModelTime, wantArrive)
	}
	if stats.TotalMsgs != 1 || stats.TotalBytes != 8000 {
		t.Errorf("TotalMsgs=%d TotalBytes=%d", stats.TotalMsgs, stats.TotalBytes)
	}
}

func TestComputeCharges(t *testing.T) {
	m := testMachine(3)
	stats := m.Run(func(p *Proc) {
		p.Compute(100 * (p.Rank() + 1))
	})
	if stats.TotalFlops != 100+200+300 {
		t.Errorf("TotalFlops = %d", stats.TotalFlops)
	}
	if stats.MaxFlops != 300 {
		t.Errorf("MaxFlops = %d", stats.MaxFlops)
	}
	imb := stats.FlopImbalance()
	if math.Abs(imb-1.5) > 1e-12 {
		t.Errorf("FlopImbalance = %g, want 1.5", imb)
	}
	wantTime := 300 * m.Cost().TFlop
	if math.Abs(stats.ModelTime-wantTime) > 1e-15 {
		t.Errorf("ModelTime = %g, want %g", stats.ModelTime, wantTime)
	}
}

func TestBarrier(t *testing.T) {
	for _, np := range testNPs {
		m := testMachine(np)
		var phase int64
		m.Run(func(p *Proc) {
			atomic.AddInt64(&phase, 1)
			p.Barrier()
			if got := atomic.LoadInt64(&phase); got != int64(np) {
				t.Errorf("np=%d rank=%d: after barrier phase=%d", np, p.Rank(), got)
			}
		})
	}
}

// TestBcast: the tree broadcast reaches every rank from any root — a
// root other than rank 0 heads the group's rank list.
func TestBcast(t *testing.T) {
	for _, np := range testNPs {
		for root := 0; root < np; root += max(1, np/3) {
			m := testMachine(np)
			want := []float64{3.5, -1, float64(root)}
			ranks := []int{root}
			for r := 0; r < np; r++ {
				if r != root {
					ranks = append(ranks, r)
				}
			}
			m.Run(func(p *Proc) {
				var in []float64
				if p.Rank() == root {
					in = want
				}
				out := NewGroup(p, ranks).BcastFloats(p, in)
				if !reflect.DeepEqual(out, want) {
					t.Errorf("np=%d root=%d rank=%d: bcast = %v", np, root, p.Rank(), out)
				}
			})
		}
	}
}

func TestReduceAllOps(t *testing.T) {
	for _, np := range testNPs {
		m := testMachine(np)
		m.Run(func(p *Proc) {
			mx := p.AllreduceScalar(float64(p.Rank()), OpMax)
			if mx != float64(np-1) {
				t.Errorf("np=%d Allreduce max = %v", np, mx)
			}
			mn := p.AllreduceScalar(float64(p.Rank()), OpMin)
			if mn != 0 {
				t.Errorf("np=%d Allreduce min = %v", np, mn)
			}
		})
	}
}

func TestAllreduceScalar(t *testing.T) {
	for _, np := range testNPs {
		m := testMachine(np)
		m.Run(func(p *Proc) {
			got := p.AllreduceScalar(float64(p.Rank()+1), OpSum)
			want := float64(np*(np+1)) / 2
			if got != want {
				t.Errorf("np=%d AllreduceScalar = %g, want %g", np, got, want)
			}
		})
	}
}

func blockCounts(n, np int) []int {
	counts := make([]int, np)
	for r := range counts {
		lo := r * n / np
		hi := (r + 1) * n / np
		counts[r] = hi - lo
	}
	return counts
}

func TestGatherScatterAllgather(t *testing.T) {
	for _, np := range testNPs {
		n := 3*np + 1 // uneven blocks
		counts := blockCounts(n, np)
		want := make([]float64, n)
		for i := range want {
			want[i] = float64(i * i)
		}
		m := testMachine(np)
		m.Run(func(p *Proc) {
			lo := p.Rank() * n / np
			local := make([]float64, counts[p.Rank()])
			for i := range local {
				local[i] = want[lo+i]
			}
			var full []float64
			if p.Rank() == 0 {
				full = want
			}
			back := p.ScatterV(0, full, counts)
			if !reflect.DeepEqual(back, local) {
				t.Errorf("np=%d rank=%d ScatterV = %v, want %v", np, p.Rank(), back, local)
			}

			ag := p.AllgatherV(local, counts)
			if !reflect.DeepEqual(ag, want) {
				t.Errorf("np=%d rank=%d AllgatherV = %v", np, p.Rank(), ag)
			}
		})
	}
}

func TestReduceScatterSum(t *testing.T) {
	for _, np := range testNPs {
		n := 4*np + 2
		counts := blockCounts(n, np)
		m := testMachine(np)
		m.Run(func(p *Proc) {
			full := make([]float64, n)
			for i := range full {
				full[i] = float64((p.Rank() + 1) * (i + 1))
			}
			got := make([]float64, counts[p.Rank()])
			p.ReduceScatterSum(full, counts, got)
			// The blocks travelled as copies, so full is the caller's to
			// overwrite while other ranks still sum.
			for i := range full {
				full[i] = math.NaN()
			}
			lo := p.Rank() * n / np
			sumRanks := float64(np*(np+1)) / 2
			for i, v := range got {
				want := sumRanks * float64(lo+i+1)
				if math.Abs(v-want) > 1e-9 {
					t.Errorf("np=%d rank=%d elem %d = %g, want %g", np, p.Rank(), i, v, want)
				}
			}
		})
	}
}

// Property test: AllgatherV reconstructs any random vector for any
// processor count, and ReduceScatterSum matches a serial sum.
func TestCollectivesQuick(t *testing.T) {
	f := func(seed int64, npRaw, nRaw uint8) bool {
		np := int(npRaw%8) + 1
		n := int(nRaw%50) + np
		rng := rand.New(rand.NewSource(seed))
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		counts := blockCounts(n, np)
		ok := true
		m := testMachine(np)
		m.Run(func(p *Proc) {
			lo := p.Rank() * n / np
			local := append([]float64(nil), want[lo:lo+counts[p.Rank()]]...)
			got := p.AllgatherV(local, counts)
			for i := range got {
				if got[i] != want[i] {
					ok = false
				}
			}
			rs := make([]float64, counts[p.Rank()])
			p.ReduceScatterSum(want, counts, rs)
			for i, v := range rs {
				if math.Abs(v-float64(np)*want[lo+i]) > 1e-9 {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPanicPropagates(t *testing.T) {
	m := testMachine(4)
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("expected panic to propagate from Run")
		}
		if s, ok := e.(string); !ok || s != "boom" {
			t.Fatalf("unexpected panic value %v", e)
		}
	}()
	m.Run(func(p *Proc) {
		if p.Rank() == 2 {
			panic("boom")
		}
		// Other ranks block in a collective; the abort must unwedge them.
		p.Barrier()
	})
}

func TestTagMismatchPanics(t *testing.T) {
	m := testMachine(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected tag mismatch panic")
		}
	}()
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(1, 5, []float64{1})
		} else {
			p.RecvFloats(0, 6)
		}
	})
}

func TestModelTimeDeterministic(t *testing.T) {
	run := func() float64 {
		m := testMachine(8)
		st := m.Run(func(p *Proc) {
			x := make([]float64, 100)
			for i := 0; i < 5; i++ {
				p.Compute(1000)
				p.AllreduceScalars(x, OpSum)
				p.Barrier()
			}
		})
		return st.ModelTime
	}
	t1, t2 := run(), run()
	if t1 != t2 {
		t.Errorf("model time not deterministic: %g vs %g", t1, t2)
	}
	if t1 <= 0 {
		t.Errorf("model time should be positive, got %g", t1)
	}
}

// The simulated binomial broadcast must scale like the analytic
// t_s*ceil(log2 NP) formula for small messages (§4 of the paper).
func TestBcastMatchesAnalyticShape(t *testing.T) {
	cost := topology.CostParams{TStartup: 1e-4, THop: 0, TByte: 0, TFlop: 0}
	for _, np := range []int{2, 4, 8, 16, 32} {
		m := NewMachine(np, topology.FullyConnected{}, cost)
		all := make([]int, np)
		for r := range all {
			all[r] = r
		}
		st := m.Run(func(p *Proc) {
			NewGroup(p, all).BcastFloats(p, []float64{1})
		})
		want := float64(topology.Log2Ceil(np)) * cost.TStartup
		if math.Abs(st.ModelTime-want) > 1e-12 {
			t.Errorf("np=%d bcast model time %g, want %g", np, st.ModelTime, want)
		}
	}
}

// The allgather's modeled cost must match the closed forms: the
// (NP-1)-step ring expression for non-power-of-two NP, and the
// hypercube recursive-doubling expression (the paper's
// t_s·log NP + t_w·n·(NP-1)/NP) for power-of-two NP.
func TestAllgatherMatchesAnalytic(t *testing.T) {
	cost := topology.CostParams{TStartup: 1e-4, THop: 1e-6, TByte: 1e-8, TFlop: 0}
	blockLen := 64
	for _, np := range []int{3, 5, 7} { // ring path
		n := blockLen * np
		counts := blockCounts(n, np)
		m := NewMachine(np, topology.Ring{}, cost)
		st := m.Run(func(p *Proc) {
			local := make([]float64, blockLen)
			p.AllgatherV(local, counts)
		})
		want := topology.RingAllgatherTime(cost, np, blockLen*8)
		if math.Abs(st.ModelTime-want) > want*1e-9 {
			t.Errorf("np=%d ring allgather model time %g, want %g", np, st.ModelTime, want)
		}
	}
	for _, np := range []int{2, 4, 8, 16} { // recursive-doubling path
		n := blockLen * np
		counts := blockCounts(n, np)
		m := NewMachine(np, topology.Hypercube{}, cost)
		st := m.Run(func(p *Proc) {
			local := make([]float64, blockLen)
			p.AllgatherV(local, counts)
		})
		// Partners differ by one bit, so every hop count is 1 and the
		// closed form (which charges one hop per step) applies exactly.
		want := topology.HypercubeAllgatherTime(cost, np, blockLen*8)
		if math.Abs(st.ModelTime-want) > want*1e-9 {
			t.Errorf("np=%d hypercube allgather model time %g, want %g", np, st.ModelTime, want)
		}
	}
}

func TestInvalidArgsPanic(t *testing.T) {
	cases := []struct {
		name string
		fn   func(p *Proc)
	}{
		{"send-self", func(p *Proc) { p.SendFloats(p.Rank(), 0, nil) }},
		{"send-range", func(p *Proc) { p.SendFloats(99, 0, nil) }},
		{"recv-range", func(p *Proc) { p.RecvFloats(-1, 0) }},
		{"bad-root", func(p *Proc) { p.ScatterV(12, nil, []int{0, 0}) }},
		{"bad-counts", func(p *Proc) { p.AllgatherV(nil, []int{1, 2, 3}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			testMachine(2).Run(c.fn)
		})
	}
}

func TestNewMachineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine(0) should panic")
		}
	}()
	NewMachine(0, topology.Ring{}, topology.DefaultCostParams())
}

func TestPayloadBytes(t *testing.T) {
	pl := Payload{Floats: make([]float64, 3), Ints: make([]int, 2)}
	if pl.Bytes() != 40 {
		t.Errorf("Bytes = %d, want 40", pl.Bytes())
	}
}

func TestRunStatsCommTime(t *testing.T) {
	m := testMachine(2)
	st := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(1, 1, make([]float64, 10))
		} else {
			p.RecvFloats(0, 1)
		}
	})
	if st.CommTime() <= 0 {
		t.Errorf("CommTime = %g, want > 0", st.CommTime())
	}
}

func ExampleMachine_Run() {
	m := NewMachine(4, topology.Hypercube{}, topology.DefaultCostParams())
	m.Run(func(p *Proc) {
		sum := p.AllreduceScalar(float64(p.Rank()), OpSum)
		if p.Rank() == 0 {
			fmt.Println("sum of ranks:", sum)
		}
	})
	// Output: sum of ranks: 6
}

func TestBytesMatrix(t *testing.T) {
	m := testMachine(3)
	st := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(2, 1, make([]float64, 4)) // 32 bytes
		}
		if p.Rank() == 2 {
			p.RecvFloats(0, 1)
		}
	})
	if len(st.BytesMatrix) != 3 {
		t.Fatalf("matrix size %d", len(st.BytesMatrix))
	}
	if st.BytesMatrix[0][2] != 32 {
		t.Errorf("bytes[0][2] = %d, want 32", st.BytesMatrix[0][2])
	}
	total := int64(0)
	for _, row := range st.BytesMatrix {
		for _, b := range row {
			total += b
		}
	}
	if total != st.TotalBytes {
		t.Errorf("matrix total %d != TotalBytes %d", total, st.TotalBytes)
	}
}

// within returns a context that ends d from now (or with the test).
func within(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestRunContextCompletes(t *testing.T) {
	m := testMachine(4)
	rs, err := m.RunContext(within(t, 5*time.Second), func(p *Proc) {
		p.AllreduceScalar(1, OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.TotalMsgs == 0 {
		t.Error("no stats from completed run")
	}
}

func TestRunContextDetectsDeadlock(t *testing.T) {
	m := testMachine(2)
	// Classic SPMD bug: rank 0 enters a collective, rank 1 does not.
	_, err := m.RunContext(within(t, 200*time.Millisecond), func(p *Proc) {
		if p.Rank() == 0 {
			p.Barrier()
		}
	})
	if err == nil {
		t.Fatal("deadlock not detected")
	}
	if !strings.Contains(err.Error(), "deadlocked") || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("unexpected error: %v", err)
	}
}

// TestRunContextStopsComputeOnly: a rank that never communicates — any
// rank at np = 1 — unwinds at its next Compute once the context ends,
// by deadline or by cancellation, and an ended context runs nothing.
func TestRunContextStopsComputeOnly(t *testing.T) {
	m := testMachine(1)
	spin := func(p *Proc) {
		for {
			p.Compute(1)
		}
	}
	start := time.Now()
	if _, err := m.RunContext(within(t, 20*time.Millisecond), spin); !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "deadlocked") {
		t.Fatalf("deadline: err = %v, want the deadlock diagnostic", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("a 20ms deadline took %v to stop the run", wall)
	}

	ctx, cancel := context.WithCancel(context.Background())
	_, err := m.RunContext(ctx, func(p *Proc) {
		for i := 0; ; i++ {
			if i == 1000 {
				cancel()
			}
			p.Compute(1)
		}
	})
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("cancel: err = %v, want the cancellation", err)
	}

	ran := false
	if _, err := m.RunContext(ctx, func(*Proc) { ran = true }); !errors.Is(err, context.Canceled) || ran {
		t.Errorf("ended context: err = %v ran = %v, want context.Canceled without running", err, ran)
	}
}

func TestRunContextForwardsPanics(t *testing.T) {
	m := testMachine(2)
	defer func() {
		if e := recover(); e == nil || e.(string) != "kaboom" {
			t.Fatalf("panic not forwarded: %v", e)
		}
	}()
	m.RunContext(within(t, 5*time.Second), func(p *Proc) {
		if p.Rank() == 1 {
			panic("kaboom")
		}
		p.Barrier()
	})
}

// TestSharedBuildsOncePerRunAndKey: every rank asking for one key gets
// the one value a single build produced; another key, and the same key
// in a later run, build again; the modeled clock never moves.
func TestSharedBuildsOncePerRunAndKey(t *testing.T) {
	type key int
	const np = 8
	m := testMachine(np)
	var builds atomic.Int64
	build := func() any { builds.Add(1); return new(int) }
	for run := 1; run <= 2; run++ {
		got := make([]any, np)
		var other any
		rs := m.Run(func(p *Proc) {
			got[p.Rank()] = p.Shared(key(1), build)
			if p.Rank() == 3 {
				other = p.Shared(key(2), build)
			}
		})
		for r := range got {
			if got[r] != got[0] {
				t.Errorf("run %d: rank %d holds a different value than rank 0", run, r)
			}
		}
		if other == got[0] {
			t.Errorf("run %d: two keys share one value", run)
		}
		if n := builds.Load(); n != int64(2*run) {
			t.Errorf("after run %d: %d builds, want %d", run, n, 2*run)
		}
		if rs.ModelTime != 0 {
			t.Errorf("run %d: Shared moved the modeled clock to %g", run, rs.ModelTime)
		}
	}
}
