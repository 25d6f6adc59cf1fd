// The directive language end to end: parse the paper's Figure 2 block
// (plus the §5.1/§5.2 extensions), bind it to concrete sizes, then use
// the bound plan to drive an actual distributed sparse matrix-vector
// product — including the PRIVATE/MERGE(+) loop the ITERATION
// directive describes, executed under its ON PROCESSOR map.
package main

import (
	"fmt"
	"log"
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/forall"
	"hpfcg/internal/hpf"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

const directives = `
!HPF$ PROCESSORS :: PROCS(NP)
!HPF$ ALIGN (:) WITH p(:) :: q, r, x, b
!HPF$ DISTRIBUTE p(BLOCK)
!HPF$ DYNAMIC, ALIGN a(:) WITH row(:)
!HPF$ DYNAMIC, DISTRIBUTE row(BLOCK)
!HPF$ SPARSE_MATRIX (CSC) :: smA(col, row, a)
!EXT$ INDIVISABLE row(ATOM:i) :: col(i:i+1)
!EXT$ REDISTRIBUTE row(ATOM: BLOCK)
!EXT$ ITERATION j ON PROCESSOR(j*np/n), &
!EXT$ PRIVATE(q(n)) WITH MERGE(+), &
!EXT$ NEW(pj, k)
`

func main() {
	const np = 4
	// The system: a banded SPD matrix in CSC format (Scenario 2).
	A := sparse.Banded(24, 2)
	csc := A.ToCSC()
	n := A.NRows
	nz := A.NNZ()

	prog, err := hpf.Parse(directives)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %d directives\n\n", len(prog.Directives))

	plan, err := hpf.Bind(prog, np,
		map[string]int{"p": n, "q": n, "r": n, "x": n, "b": n, "col": n + 1, "row": nz, "a": nz},
		map[string]int{"n": n, "nz": nz})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(plan.Describe())

	// Realise the ATOM redistribution against the real column pointers:
	// whole columns per processor, never split.
	elemDist, err := plan.BindAtomRedistribution("row", csc.ColPtr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ATOM:BLOCK element cuts for (row, a): %v\n\n", elemDist.(dist.Irregular).Cuts())

	// Execute the ITERATION directive's loop: the CSC mat-vec
	// q(row(k)) += a(k)*p(j) with a PRIVATE q merged by MERGE(+).
	it := plan.Iterations[0]
	iterMap := plan.IterationMap(it)
	vecDist := plan.Arrays["p"].Dist
	counts := dist.Counts(vecDist)

	xRef := make([]float64, n)
	for i := range xRef {
		xRef[i] = math.Sin(float64(i))
	}
	want := make([]float64, n)
	A.MulVec(xRef, want)

	m := comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
	var got []float64
	m.Run(func(p *comm.Proc) {
		region := forall.NewPrivate(counts)
		q := region.Open()
		forall.Indep(p, 0, n, forall.MapFunc(iterMap), 0, func(j int) {
			pj := xRef[j]
			for k := csc.ColPtr[j]; k < csc.ColPtr[j+1]; k++ {
				q[csc.Row[k]] += csc.Val[k] * pj
			}
		})
		// MERGE(+) onto the BLOCK-distributed q the directives declare.
		qv := darray.New(p, vecDist)
		region.MergeDistributed(p, qv.Local())
		full := qv.Gather()
		if p.Rank() == 0 {
			got = full
		}
	})

	maxErr := 0.0
	for i := range want {
		if e := math.Abs(got[i] - want[i]); e > maxErr {
			maxErr = e
		}
	}
	fmt.Printf("ITERATION-directive mat-vec vs sequential reference: max |err| = %.3e\n", maxErr)
	if maxErr > 1e-12 {
		log.Fatal("directive-driven execution diverged from reference")
	}
	fmt.Println("directive-driven PRIVATE/MERGE(+) execution verified.")
}
