package hpf

import (
	"fmt"
	"maps"
	"strings"

	"hpfcg/internal/dist"
	"hpfcg/internal/partition"
)

// CheckExecution holds the plan's directives to the one execution the
// mat-vec executors run: the SPARSE_MATRIX sm, its vectors mapped like
// the array root and distributed as d (root's mapping, or a
// partitioner's rebalancing of it) over n = d.N() elements. A directive
// that execution would not follow as written is refused with its line,
// never run some other way:
//
//   - an n-sized array outside sm's trio that is not mapped like root;
//   - a REDISTRIBUTE ... (ATOM: pattern) other than ATOM: BLOCK of a
//     trio data array INDIVISABLE by sm's pointer array, whose uniform
//     cut of the n rows (CSR) or columns (CSC) is d's — the one atom
//     redistribution both executors already perform, since neither
//     splits a row or column;
//   - an ITERATION line in a CSR program (the row-block mat-vec has no
//     accumulation loop), a second ITERATION line, a PRIVATE ... WITH
//     DISCARD clause (no executor runs it), and an ON PROCESSOR(f(j))
//     map that fails to evaluate, leaves [0, NP) or sends any j in
//     [0, n) to another processor than d's owner of column j.
//
// Of several refusals the one on the earliest line is returned. A plan
// with no ITERATION or ATOM line is checked without allocating; a map is
// evaluated once per j under one reused environment.
func (pl *Plan) CheckExecution(sm SparseMatrix, root *ArrayPlan, d dist.Contiguous) error {
	n := d.N()
	var err error
	errLine := 0
	refuse := func(line int, format string, args ...any) {
		if err == nil || line < errLine {
			err, errLine = fmt.Errorf("hpf: line %d: "+format, append([]any{line}, args...)...), line
		}
	}
	inTrio := func(name string) bool {
		return name == sm.Arrays[0] || name == sm.Arrays[1] || name == sm.Arrays[2]
	}

	for name, a := range pl.Arrays {
		if a.Size == n && a != root && a.AlignedTo != root.Name && !inTrio(name) && !dist.Same(a.Dist, root.Dist) {
			refuse(a.Line, "%s is distributed %s, the vectors %s (as %s); one mapping runs every array of the vector size %d",
				name, a.Dist.Name(), root.Dist.Name(), root.Name, n)
		}
	}

	for arr, r := range pl.AtomRedist {
		ind, atoms := pl.AtomsOf[arr]
		switch {
		case r.Pat.Kind != PatBlock || r.Pat.Size != nil:
			refuse(r.Line(), "REDISTRIBUTE %s(%s) has no executor; only ATOM: BLOCK runs", arr, *r.Pat)
		case !atoms || ind.Indir != sm.Arrays[0] || arr != sm.Arrays[1] && arr != sm.Arrays[2]:
			refuse(r.Line(), "REDISTRIBUTE %s(ATOM: BLOCK) needs %s to be %s's data, INDIVISABLE by its pointer array %s",
				arr, arr, sm.Name, sm.Arrays[0])
		default:
			for p, cut := range partition.UniformAtomBlock(n, pl.NP) {
				if p < pl.NP && cut != d.Lo(p) {
					refuse(r.Line(), "REDISTRIBUTE %s(ATOM: BLOCK) starts processor %d at atom %d, the vectors (%s) at %d",
						arr, p, cut, d.Name(), d.Lo(p))
					break
				}
			}
		}
	}

	for i, it := range pl.Iterations {
		switch {
		case i > 0:
			refuse(it.Line(), "a second ITERATION directive (line %d has the mat-vec's one loop)", pl.Iterations[0].Line())
		case sm.Format == "csr":
			refuse(it.Line(), "ITERATION in a CSR program: the row-block mat-vec has no accumulation loop to map")
		}
		for _, cl := range it.Clauses {
			if cl.Kind == "private" && cl.Merge == "discard" {
				refuse(it.Line(), "PRIVATE(%s) WITH DISCARD has no executor; only WITH MERGE(+) runs", cl.Array)
			}
		}
	}
	if len(pl.Iterations) > 0 && sm.Format != "csr" {
		it := pl.Iterations[0]
		env := maps.Clone(pl.env)
	mapping:
		for p := 0; p < pl.NP; p++ {
			for j := d.Lo(p); j < d.Lo(p)+d.Count(p); j++ {
				env[it.Var] = j
				switch got, e := it.MapExpr.Eval(env); {
				case e != nil:
					refuse(it.Line(), "ON PROCESSOR(%s) at %s = %d: %s", exprSrc(it.MapExpr), it.Var, j, strings.TrimPrefix(e.Error(), "hpf: "))
				case got < 0 || got >= pl.NP:
					refuse(it.Line(), "ON PROCESSOR(%s) maps %s = %d to processor %d, outside [0, %d)",
						exprSrc(it.MapExpr), it.Var, j, got, pl.NP)
				case got != p:
					refuse(it.Line(), "ON PROCESSOR(%s) maps %s = %d to processor %d, but the vectors (%s) own it on %d",
						exprSrc(it.MapExpr), it.Var, j, got, d.Name(), p)
				default:
					continue
				}
				break mapping
			}
		}
	}
	return err
}
