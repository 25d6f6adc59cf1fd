package comm_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/fault"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
)

// TestDroppedMessagePeerFailure: a message lost by the fault layer
// leaves a marker in its place on the link, and the receiver that
// reaches it fails blaming the sender at its own modeled instant —
// never as a tag mismatch on the sender's next message, and never after
// a wall-clock wait. Every cell of np × dropping rank × destination
// (any, or each peer) × count, on a small CSR solve run plain and
// pipelined, must fail the same way twice: the dropper blamed, the
// same failure instant, and the run's ModelTime equal to it.
func TestDroppedMessagePeerFailure(t *testing.T) {
	A := sparse.Laplace2D(8, 8)
	opt := core.Options{Tol: 1e-10}
	start := time.Now()
	cells := 0
	for _, np := range []int{2, 3, 4, 8} {
		d := dist.NewBlock(A.NRows, np)
		for _, pipelined := range []bool{false, true} {
			body := func(p *comm.Proc) {
				op := spmv.NewRowBlockCSRGhost(p, A, d)
				b, x := darray.New(p, d), darray.New(p, d)
				b.SetGlobal(func(g int) float64 { return float64(g%7) - 3 })
				if pipelined {
					core.CGPipelined(p, op, b, x, opt)
				} else {
					core.CG(p, op, b, x, opt)
				}
			}
			for dropper := 0; dropper < np; dropper++ {
				for dst := -1; dst < np; dst++ {
					if dst == dropper {
						continue
					}
					for _, n := range []int{1, 2} {
						cells++
						var first comm.PeerFailure
						for rep := 0; rep < 2; rep++ {
							inj, err := fault.NewInjector(fault.Plan{Events: []fault.Event{
								{Kind: fault.Drop, Rank: dropper, Count: n, Dst: dst},
							}})
							if err != nil {
								t.Fatal(err)
							}
							m := comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
							m.AttachInjector(inj)
							rs, err := m.RunContext(context.Background(), body)
							var pf comm.PeerFailure
							if !errors.As(err, &pf) || pf.Rank != dropper {
								t.Fatalf("np=%d pipelined=%v drop rank=%d dst=%d n=%d: err = %v, want PeerFailure blaming %d",
									np, pipelined, dropper, dst, n, err, dropper)
							}
							if rs.ModelTime != pf.Clock {
								t.Errorf("np=%d pipelined=%v drop rank=%d dst=%d n=%d: ModelTime %v != failure clock %v",
									np, pipelined, dropper, dst, n, rs.ModelTime, pf.Clock)
							}
							if rep == 0 {
								first = pf
							} else if pf != first {
								t.Errorf("np=%d pipelined=%v drop rank=%d dst=%d n=%d: %v, then %v",
									np, pipelined, dropper, dst, n, first, pf)
							}
						}
					}
				}
			}
		}
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Errorf("%d cells took %v of wall time, want under 2s", cells, wall)
	}
}
