package comm

import (
	"fmt"
	"testing"

	"hpfcg/internal/trace"
)

// TestPayloadBytesMixed: modeled wire size is 8 bytes per element for
// floats and ints alike, including mixed payloads and nil slices.
func TestPayloadBytesMixed(t *testing.T) {
	cases := []struct {
		pl   Payload
		want int
	}{
		{Payload{}, 0},
		{Payload{Floats: []float64{}}, 0},
		{Payload{Floats: make([]float64, 3)}, 24},
		{Payload{Ints: make([]int, 5)}, 40},
		{Payload{Floats: make([]float64, 3), Ints: make([]int, 5)}, 64},
		{Payload{Floats: make([]float64, 1), Ints: []int{}}, 8},
	}
	for _, c := range cases {
		if got := c.pl.Bytes(); got != c.want {
			t.Errorf("Bytes(%d floats, %d ints) = %d, want %d",
				len(c.pl.Floats), len(c.pl.Ints), got, c.want)
		}
	}
}

// TestCommTimeNP1: a single processor cannot communicate, so the
// busiest processor's communication time is zero.
func TestCommTimeNP1(t *testing.T) {
	rs := testMachine(1).Run(func(p *Proc) {
		p.Compute(1000)
		p.Barrier() // degenerate: no messages at np=1
	})
	if rs.CommTime() != 0 {
		t.Errorf("np=1 CommTime = %g, want 0", rs.CommTime())
	}
	if rs.TotalMsgs != 0 || rs.TotalMsgsRecv != 0 {
		t.Errorf("np=1 moved messages: sent=%d recv=%d", rs.TotalMsgs, rs.TotalMsgsRecv)
	}
}

// TestFlopImbalanceEdgeCases: zero-flop runs report perfect balance
// (1.0) rather than dividing by zero; np=1 is always balanced; a
// lopsided load reports max/mean.
func TestFlopImbalanceEdgeCases(t *testing.T) {
	zero := testMachine(4).Run(func(p *Proc) { p.Barrier() })
	if got := zero.FlopImbalance(); got != 1 {
		t.Errorf("zero-flop FlopImbalance = %g, want 1", got)
	}
	single := testMachine(1).Run(func(p *Proc) { p.Compute(12345) })
	if got := single.FlopImbalance(); got != 1 {
		t.Errorf("np=1 FlopImbalance = %g, want 1", got)
	}
	// Rank 1 of 2 does all the work: max/mean = 1000/500 = 2.
	skew := testMachine(2).Run(func(p *Proc) {
		if p.Rank() == 1 {
			p.Compute(1000)
		}
	})
	if got := skew.FlopImbalance(); got != 2 {
		t.Errorf("skewed FlopImbalance = %g, want 2", got)
	}
	// Compute with non-positive flops charges nothing.
	noop := testMachine(2).Run(func(p *Proc) {
		p.Compute(0)
		p.Compute(-5)
	})
	if noop.TotalFlops != 0 || noop.FlopImbalance() != 1 {
		t.Errorf("non-positive Compute: flops=%d imbalance=%g", noop.TotalFlops, noop.FlopImbalance())
	}
}

// TestCommTimeZeroFlopRun: a pure-communication run has CommTime equal
// to the makespan on the busiest rank and zero ComputeTime everywhere.
func TestCommTimeZeroFlopRun(t *testing.T) {
	rs := testMachine(2).Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(1, 1, make([]float64, 100))
		} else {
			p.RecvFloats(0, 1)
		}
	})
	if rs.CommTime() <= 0 {
		t.Error("pure-communication run reports zero CommTime")
	}
	for r, ps := range rs.Procs {
		if ps.ComputeTime != 0 {
			t.Errorf("rank %d ComputeTime = %g, want 0", r, ps.ComputeTime)
		}
	}
}

// TestRecvCountersSymmetric: per-rank receive accounting mirrors the
// send side, pairwise and in aggregate, once every message has been
// consumed.
func TestRecvCountersSymmetric(t *testing.T) {
	for _, np := range []int{2, 3, 4, 8} {
		rs := testMachine(np).Run(func(p *Proc) {
			p.AllgatherV(make([]float64, 4), fill(np, 4))
			p.AllreduceScalar(float64(p.Rank()), OpSum)
			p.Barrier()
		})
		if rs.TotalMsgsRecv != rs.TotalMsgs {
			t.Errorf("np=%d: TotalMsgsRecv %d != TotalMsgs %d", np, rs.TotalMsgsRecv, rs.TotalMsgs)
		}
		if rs.TotalBytesRecv != rs.TotalBytes {
			t.Errorf("np=%d: TotalBytesRecv %d != TotalBytes %d", np, rs.TotalBytesRecv, rs.TotalBytes)
		}
		// Per-rank receive totals must equal the column sums of the
		// communication matrix.
		for r := 0; r < np; r++ {
			var col int64
			for s := 0; s < np; s++ {
				col += rs.BytesMatrix[s][r]
			}
			if rs.Procs[r].BytesRecv != col {
				t.Errorf("np=%d rank %d: BytesRecv %d != matrix column sum %d", np, r, rs.Procs[r].BytesRecv, col)
			}
		}
	}
}

// TestRecvCountersSeeUndelivered: messages left in the mailboxes are
// visible as a send/recv total mismatch.
func TestRecvCountersSeeUndelivered(t *testing.T) {
	rs := testMachine(2).Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.SendFloats(1, 1, make([]float64, 8))
			p.SendFloats(1, 2, make([]float64, 8))
		} else {
			p.RecvFloats(0, 1) // second message intentionally unconsumed
		}
	})
	if rs.TotalMsgs != 2 || rs.TotalMsgsRecv != 1 {
		t.Errorf("sent=%d recv=%d, want 2/1", rs.TotalMsgs, rs.TotalMsgsRecv)
	}
	if rs.TotalBytes-rs.TotalBytesRecv != 64 {
		t.Errorf("undelivered bytes = %d, want 64", rs.TotalBytes-rs.TotalBytesRecv)
	}
}

func fill(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestSendPathNoAllocsWhenDetached is the tentpole's zero-overhead
// guarantee: with no tracer attached, Send performs no heap
// allocations (the mailbox channels are pre-sized, the message is a
// value, and the nil-tracer branch constructs no event).
func TestSendPathNoAllocsWhenDetached(t *testing.T) {
	m := testMachine(2)
	var allocs float64
	pl := Payload{Floats: make([]float64, 16)}
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			// One warm-up send, then 8 measured sends; all 9 fit in the
			// mailbox buffer (8+np), so the sender never blocks and the
			// receiver path (which allocates nothing either) only drains.
			p.Send(1, 3, pl)
			allocs = testing.AllocsPerRun(7, func() {
				p.Send(1, 3, pl)
			})
		} else {
			for i := 0; i < 9; i++ {
				p.Recv(0, 3)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Send allocated %.1f times per call with tracing detached, want 0", allocs)
	}
}

// BenchmarkRun is what an empty SPMD run costs on one reused machine:
// the fresh mailboxes, dead flags and byte matrix, one goroutine per
// rank, and resetting each rank's run state (ns/op, allocs/op). It is
// the kernel-level unit behind the benchmark's comm.allocs_per_run.
func BenchmarkRun(b *testing.B) {
	for _, np := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("np=%d", np), func(b *testing.B) {
			m := testMachine(np)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Run(func(*Proc) {})
			}
		})
	}
}

// BenchmarkSendRecvDetached measures the point-to-point round trip
// with no tracer attached; -benchmem should report ~0 allocs/op from
// the send path itself.
func BenchmarkSendRecvDetached(b *testing.B) {
	m := testMachine(2)
	pl := Payload{Floats: make([]float64, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	pingPong(m, pl, b.N)
}

// BenchmarkSendRecvTraced is the same loop with a tracer attached, to
// keep the tracing overhead visible and bounded. It runs in chunks
// with a fresh tracer each so recorded events do not accumulate
// without bound across a large b.N.
func BenchmarkSendRecvTraced(b *testing.B) {
	m := testMachine(2)
	pl := Payload{Floats: make([]float64, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 4096
	for remaining := b.N; remaining > 0; remaining -= chunk {
		m.AttachTracer(&trace.Tracer{})
		pingPong(m, pl, min(chunk, remaining))
	}
}

func pingPong(m *Machine, pl Payload, iters int) {
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < iters; i++ {
				p.Send(1, 1, pl)
				p.Recv(1, 2)
			}
		} else {
			for i := 0; i < iters; i++ {
				p.Recv(0, 1)
				p.Send(0, 2, pl)
			}
		}
	})
}
