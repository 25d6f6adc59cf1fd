package trace_test

import (
	"math"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/topology"
	"hpfcg/internal/trace"
)

func tracedMachine(np int) (*comm.Machine, *trace.Tracer) {
	m := comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
	tr := &trace.Tracer{}
	m.AttachTracer(tr)
	return m, tr
}

func TestRecorderCapturesSendRecvCompute(t *testing.T) {
	m, tr := tracedMachine(2)
	rs := m.Run(func(p *comm.Proc) {
		if p.Rank() == 0 {
			p.Compute(100)
			p.SendFloats(1, 7, make([]float64, 50))
		} else {
			p.RecvFloats(0, 7)
			p.Compute(10)
		}
	})
	runs := tr.Runs()
	if len(runs) != 1 {
		t.Fatalf("Runs() = %d recorders, want 1", len(runs))
	}
	rec := runs[0]
	if rec.ModelTime() != rs.ModelTime {
		t.Errorf("ModelTime() = %g, want %g", rec.ModelTime(), rs.ModelTime)
	}
	r0 := rec.RankEvents(0)
	if len(r0) != 2 || r0[0].Kind != trace.KindCompute || r0[1].Kind != trace.KindSend {
		t.Fatalf("rank 0 events = %+v, want [compute send]", r0)
	}
	if r0[1].Peer != 1 || r0[1].Tag != 7 || r0[1].Bytes != 400 {
		t.Errorf("send event = %+v", r0[1])
	}
	r1 := rec.RankEvents(1)
	if len(r1) != 2 || r1[0].Kind != trace.KindRecv || r1[1].Kind != trace.KindCompute {
		t.Fatalf("rank 1 events = %+v, want [recv compute]", r1)
	}
	recv := r1[0]
	if recv.Peer != 0 || recv.Bytes != 400 {
		t.Errorf("recv event = %+v", recv)
	}
	if recv.Depart <= 0 || recv.Head < recv.Depart || recv.End < recv.Head {
		t.Errorf("recv timestamps inconsistent: %+v", recv)
	}
	for _, evs := range [][]trace.Event{r0, r1} {
		for _, e := range evs {
			if e.End < e.Start {
				t.Errorf("event %+v has End < Start", e)
			}
		}
	}
}

func TestCollectiveSpansRecorded(t *testing.T) {
	m, tr := tracedMachine(4)
	m.Run(func(p *comm.Proc) {
		p.Barrier()
		p.AllreduceScalar(float64(p.Rank()), comm.OpSum)
	})
	rec := tr.Runs()[0]
	for rank := 0; rank < 4; rank++ {
		got := map[string]int{}
		for _, e := range rec.RankEvents(rank) {
			if e.Kind == trace.KindCollective {
				got[e.Op]++
			}
		}
		// Allreduce = allreduce span + nested reduce and bcast spans.
		for _, op := range []string{"barrier", "allreduce", "reduce", "bcast"} {
			if got[op] != 1 {
				t.Errorf("rank %d: %d %q spans, want 1 (have %v)", rank, got[op], op, got)
			}
		}
	}
}

func TestTracerCollectsOneRecorderPerRun(t *testing.T) {
	m, tr := tracedMachine(2)
	for i := 0; i < 3; i++ {
		m.Run(func(p *comm.Proc) { p.Barrier() })
	}
	runs := tr.Runs()
	if len(runs) != 3 {
		t.Fatalf("Runs() = %d, want 3", len(runs))
	}
	for i, rec := range runs {
		if rec.ModelTime() <= 0 {
			t.Errorf("run %d not sealed with its makespan", i)
		}
		if rec.NumEvents() == 0 {
			t.Errorf("run %d recorded no events", i)
		}
	}
	if tr.Last() != runs[2] {
		t.Error("Last() is not the most recent recorder")
	}
}

// TestMatrixMatchesProcStats checks the acceptance criterion that the
// trace-derived communication matrix agrees with the machine's own
// accounting, per rank on both the send and receive sides.
func TestMatrixMatchesProcStats(t *testing.T) {
	m, tr := tracedMachine(4)
	rs := m.Run(func(p *comm.Proc) {
		p.AllgatherV(make([]float64, 8), []int{8, 8, 8, 8})
		p.AlltoallVInts([][]int{{1}, {2, 2}, {3}, {4, 4, 4}})
		p.Barrier()
	})
	rec := tr.Runs()[0]
	cm := trace.Matrix(rec)
	rows, cols := cm.RowTotals(), cm.ColTotals()
	for r := 0; r < 4; r++ {
		if rows[r] != rs.Procs[r].BytesSent {
			t.Errorf("rank %d: matrix row total %d != ProcStats.BytesSent %d", r, rows[r], rs.Procs[r].BytesSent)
		}
		if cols[r] != rs.Procs[r].BytesRecv {
			t.Errorf("rank %d: matrix col total %d != ProcStats.BytesRecv %d", r, cols[r], rs.Procs[r].BytesRecv)
		}
	}
	var msgs int64
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			msgs += cm.Msgs[s][d]
			if s == d && cm.Bytes[s][d] != 0 {
				t.Errorf("self traffic recorded at rank %d", s)
			}
		}
	}
	if msgs != rs.TotalMsgs {
		t.Errorf("matrix msgs %d != TotalMsgs %d", msgs, rs.TotalMsgs)
	}
	if tabs := cm.Tables("test"); len(tabs) != 2 {
		t.Errorf("Tables() = %d tables, want 2", len(tabs))
	}
}

// TestCriticalPathBoundsMakespan asserts the acceptance criterion on
// every collective the machine offers, across processor counts
// including non-powers of two: the happens-before critical path never
// exceeds the modeled makespan, and is positive whenever the
// collective moved anything.
func TestCriticalPathBoundsMakespan(t *testing.T) {
	colls := map[string]func(p *comm.Proc, counts []int){
		"barrier": func(p *comm.Proc, _ []int) { p.Barrier() },
		"group-bcast": func(p *comm.Proc, c []int) {
			all := make([]int, len(c))
			for r := range all {
				all[r] = r
			}
			comm.NewGroup(p, all).BcastFloats(p, make([]float64, 32))
		},
		"allreduce":  func(p *comm.Proc, _ []int) { p.AllreduceScalars(make([]float64, 32), comm.OpMax) },
		"scatterv":   func(p *comm.Proc, c []int) { p.ScatterV(0, scatterFull(p, c), c) },
		"allgatherv": func(p *comm.Proc, c []int) { p.AllgatherV(make([]float64, c[p.Rank()]), c) },
		"alltoallv": func(p *comm.Proc, _ []int) {
			segs := make([][]int, p.NP())
			for i := range segs {
				segs[i] = make([]int, 4)
			}
			p.AlltoallVInts(segs)
		},
		"reduce-scatter": func(p *comm.Proc, c []int) {
			total := 0
			for _, x := range c {
				total += x
			}
			p.ReduceScatterSum(make([]float64, total), c, make([]float64, c[p.Rank()]))
		},
	}
	for name, coll := range colls {
		for _, np := range []int{1, 2, 3, 4, 5, 8} {
			counts := make([]int, np)
			for i := range counts {
				counts[i] = 3 + i%2
			}
			m, tr := tracedMachine(np)
			rs := m.Run(func(p *comm.Proc) { coll(p, counts) })
			rec := tr.Runs()[0]
			ps := trace.CriticalPath(rec)
			const eps = 1e-12
			if ps.Length > rs.ModelTime+eps {
				t.Errorf("%s np=%d: critical path %g exceeds makespan %g", name, np, ps.Length, rs.ModelTime)
			}
			if np > 1 && ps.Length <= 0 {
				t.Errorf("%s np=%d: zero critical path for a communicating collective", name, np)
			}
			if ps.Length > 0 && ps.Events == 0 {
				t.Errorf("%s np=%d: positive length but no events on path", name, np)
			}
			if got := ps.Compute + ps.SendOverhead + ps.Network; got > ps.Length+eps {
				t.Errorf("%s np=%d: breakdown %g exceeds length %g", name, np, got, ps.Length)
			}
		}
	}
}

func scatterFull(p *comm.Proc, counts []int) []float64 {
	if p.Rank() != 0 {
		return nil
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return make([]float64, total)
}

// TestCriticalPathTightOnSerialChain: on a strictly serial ping-pong
// there is no slack anywhere, so the critical path must equal the
// makespan exactly. This also exercises message back-edges (rank 1 ->
// rank 0) through many rounds, which a naive rank-ordered sweep would
// mis-resolve.
func TestCriticalPathTightOnSerialChain(t *testing.T) {
	m, tr := tracedMachine(2)
	const rounds = 20
	rs := m.Run(func(p *comm.Proc) {
		buf := make([]float64, 16)
		for i := 0; i < rounds; i++ {
			if p.Rank() == 0 {
				p.Compute(50)
				p.SendFloats(1, i, buf)
				buf = p.RecvFloats(1, i)
			} else {
				buf = p.RecvFloats(0, i)
				p.Compute(30)
				p.SendFloats(0, i, buf)
			}
		}
	})
	ps := trace.CriticalPath(tr.Runs()[0])
	if diff := math.Abs(rs.ModelTime - ps.Length); diff > 1e-12 {
		t.Errorf("serial chain: critical path %g vs makespan %g (diff %g)", ps.Length, rs.ModelTime, diff)
	}
	// Every event of the run is on the path: per round, rank 0 has
	// compute+send+recv and rank 1 recv+compute+send.
	if want := rounds * 6; ps.Events != want {
		t.Errorf("path events = %d, want %d", ps.Events, want)
	}
}

// TestCriticalPathShowsSlack: one lagging rank plus idle peers —
// the path should be well below the sum of all work but equal to the
// straggler's chain.
func TestCriticalPathShowsSlack(t *testing.T) {
	m, tr := tracedMachine(4)
	rs := m.Run(func(p *comm.Proc) {
		p.Compute(100 * (1 + p.Rank()))
		p.Barrier()
	})
	ps := trace.CriticalPath(tr.Runs()[0])
	if ps.Length > rs.ModelTime+1e-12 {
		t.Errorf("critical path %g exceeds makespan %g", ps.Length, rs.ModelTime)
	}
	cost := m.Cost()
	if ps.Compute < 400*cost.TFlop-1e-12 {
		t.Errorf("path compute %g should include the straggler's %g", ps.Compute, 400*cost.TFlop)
	}
}
