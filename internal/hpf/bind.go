package hpf

import (
	"fmt"
	"sort"
	"strings"

	"hpfcg/internal/dist"
	"hpfcg/internal/partition"
)

// ArrayPlan is the bound mapping of one array.
type ArrayPlan struct {
	Name      string
	Size      int
	Dist      dist.Dist
	AlignedTo string // the ultimate alignment target ("" if directly distributed)
	Dynamic   bool
	Line      int // the DISTRIBUTE or ALIGN directive that mapped it
}

// Plan is the result of binding a directive program to concrete array
// sizes and a processor count — the set of distributed array
// descriptors an HPF compiler would construct.
type Plan struct {
	NP       int
	ProcName string
	Arrays   map[string]*ArrayPlan
	// Sparse maps a sparse-matrix name to its SPARSE_MATRIX directive.
	Sparse map[string]SparseMatrix
	// AtomsOf maps a data array to its INDIVISABLE declaration.
	AtomsOf map[string]Indivisable
	// AtomRedist maps an array to its ATOM-qualified REDISTRIBUTE.
	AtomRedist map[string]Redistribute
	// Partitioners maps an array (or sparse-matrix name) to the
	// partitioner named in REDISTRIBUTE ... USING.
	Partitioners map[string]string
	// Iterations lists the ITERATION loop directives in order.
	Iterations []Iteration

	env map[string]int
}

// Bind resolves a parsed program against np processors and the given
// array sizes. extra supplies values for identifiers used in block-size
// expressions (e.g. "n", "nz"); "np" is always available. Both maps'
// keys match case-insensitively, as the program's identifiers do: Bind
// lowers them once.
func Bind(prog *Program, np int, sizes map[string]int, extra map[string]int) (*Plan, error) {
	if np < 1 {
		return nil, fmt.Errorf("hpf: bind with np=%d", np)
	}
	env := map[string]int{"np": np}
	for k, v := range extra {
		env[strings.ToLower(k)] = v
	}
	lowered := make(map[string]int, len(sizes))
	for k, v := range sizes {
		lk := strings.ToLower(k)
		lowered[lk] = v
		if _, dup := env[lk]; !dup {
			env[lk] = v
		}
	}
	pl := &Plan{
		NP:           np,
		Arrays:       map[string]*ArrayPlan{},
		Sparse:       map[string]SparseMatrix{},
		AtomsOf:      map[string]Indivisable{},
		AtomRedist:   map[string]Redistribute{},
		Partitioners: map[string]string{},
		env:          env,
	}
	sizeOf := func(name string) (int, error) {
		if v, ok := lowered[name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("hpf: no size given for array %q", name)
	}

	type alignEdge struct {
		src, dst string
		dynamic  bool
		line     int
	}
	var aligns []alignEdge

	// A name is mapped once by each kind of directive (DISTRIBUTE and
	// ALIGN together): a second such line is refused, never a
	// replacement of the first.
	firstLine := map[[2]string]int{}
	once := func(kind, name string, line int) error {
		key := [2]string{kind, name}
		if first, dup := firstLine[key]; dup {
			return fmt.Errorf("hpf: line %d: a second mapping of %s (first mapped at line %d)", line, name, first)
		}
		firstLine[key] = line
		return nil
	}

	for _, d := range prog.Directives {
		switch d := d.(type) {
		case Processors:
			count, err := d.Count.Eval(env)
			if err != nil {
				return nil, fmt.Errorf("hpf: line %d: %w", d.Line(), err)
			}
			if count != np {
				return nil, fmt.Errorf("hpf: line %d: PROCESSORS declares %d processors, binding with %d", d.Line(), count, np)
			}
			pl.ProcName = d.Name
		case Distribute:
			if err := once("DISTRIBUTE", d.Array, d.Line()); err != nil {
				return nil, err
			}
			n, err := sizeOf(d.Array)
			if err != nil {
				return nil, fmt.Errorf("hpf: line %d: %w", d.Line(), err)
			}
			dd, err := bindPattern(d.Pat, n, np, env)
			if err != nil {
				return nil, fmt.Errorf("hpf: line %d: %w", d.Line(), err)
			}
			pl.Arrays[d.Array] = &ArrayPlan{Name: d.Array, Size: n, Dist: dd, Dynamic: d.Dynamic, Line: d.Line()}
		case Align:
			srcs := d.Extra
			if d.Source != "" {
				srcs = append([]string{d.Source}, d.Extra...)
			}
			for _, src := range srcs {
				if err := once("DISTRIBUTE", src, d.Line()); err != nil {
					return nil, err
				}
				aligns = append(aligns, alignEdge{src, d.Target, d.Dynamic, d.Line()})
			}
		case Redistribute:
			if err := once("REDISTRIBUTE", d.Array, d.Line()); err != nil {
				return nil, err
			}
			if d.Partitioner != "" {
				pl.Partitioners[d.Array] = d.Partitioner
			} else {
				pl.AtomRedist[d.Array] = d
			}
		case Indivisable:
			if err := once("INDIVISABLE", d.Data, d.Line()); err != nil {
				return nil, err
			}
			pl.AtomsOf[d.Data] = d
		case SparseMatrix:
			if err := once("SPARSE_MATRIX", d.Name, d.Line()); err != nil {
				return nil, err
			}
			pl.Sparse[d.Name] = d
		case Iteration:
			pl.Iterations = append(pl.Iterations, d)
		}
	}

	// Resolve alignment chains to fixpoint (q -> p, a -> col -> ...).
	for pass := 0; ; pass++ {
		if pass > len(aligns)+1 {
			return nil, fmt.Errorf("hpf: alignment chain does not resolve (cycle?)")
		}
		progress, unresolved := false, 0
		for _, e := range aligns {
			if _, done := pl.Arrays[e.src]; done {
				continue
			}
			target, ok := pl.Arrays[e.dst]
			if !ok {
				unresolved++
				continue
			}
			n, err := sizeOf(e.src)
			if err != nil {
				return nil, fmt.Errorf("hpf: line %d: %w", e.line, err)
			}
			if n != target.Size {
				return nil, fmt.Errorf("hpf: line %d: cannot align %q (size %d) with %q (size %d)",
					e.line, e.src, n, e.dst, target.Size)
			}
			root := e.dst
			if target.AlignedTo != "" {
				root = target.AlignedTo
			}
			pl.Arrays[e.src] = &ArrayPlan{
				Name:      e.src,
				Size:      n,
				Dist:      target.Dist,
				AlignedTo: root,
				Dynamic:   e.dynamic || target.Dynamic,
				Line:      e.line,
			}
			progress = true
		}
		if unresolved == 0 {
			break
		}
		if !progress {
			for _, e := range aligns {
				if _, done := pl.Arrays[e.src]; !done {
					if _, ok := pl.Arrays[e.dst]; !ok {
						return nil, fmt.Errorf("hpf: line %d: ALIGN target %q has no distribution", e.line, e.dst)
					}
				}
			}
			return nil, fmt.Errorf("hpf: alignment resolution stalled")
		}
	}
	return pl, nil
}

func bindPattern(pat Pattern, n, np int, env map[string]int) (dist.Dist, error) {
	if pat.Atom {
		return nil, fmt.Errorf("ATOM patterns apply to REDISTRIBUTE only")
	}
	var k int
	if pat.Size != nil {
		var err error
		k, err = pat.Size.Eval(env)
		if err != nil {
			return nil, err
		}
		if k < 1 {
			return nil, fmt.Errorf("block size %s evaluates to %d", pat.Size, k)
		}
	}
	switch pat.Kind {
	case PatBlock:
		if pat.Size == nil {
			return dist.NewBlock(n, np), nil
		}
		if k*np < n {
			return nil, fmt.Errorf("BLOCK(%d) over %d processors cannot hold %d elements (HPF requires k*NP >= n)", k, np, n)
		}
		return dist.NewBlockSize(n, np, k), nil
	case PatCyclic:
		if pat.Size == nil {
			return dist.NewCyclic(n, np), nil
		}
		return dist.NewCyclicK(n, np, k), nil
	}
	return nil, fmt.Errorf("unknown pattern kind %v", pat.Kind)
}

// BindPartitioner realises a `REDISTRIBUTE name USING partitioner`:
// ptr is the indirection array whose atom weights (nonzeros per
// row/column) the partitioner balances. CG_BALANCED_PARTITIONER_1 is
// the optimal contiguous (chains-on-chains) partitioner; it returns
// the element-level distribution for the data arrays plus the
// atom-level cut points for the pointer array.
func (pl *Plan) BindPartitioner(name string, ptr []int) (elem dist.Irregular, atomCuts []int, err error) {
	part, ok := pl.Partitioners[name]
	if !ok {
		return dist.Irregular{}, nil, fmt.Errorf("hpf: no partitioner declared for %q", name)
	}
	switch part {
	case "cg_balanced_partitioner_1":
		atoms := partition.AtomsFromPtr(ptr)
		cuts := partition.BalancedContiguous(atoms.Weights(), pl.NP)
		return atoms.ElemDist(cuts), cuts, nil
	case "cg_greedy_partitioner":
		atoms := partition.AtomsFromPtr(ptr)
		cuts := partition.GreedyContiguous(atoms.Weights(), pl.NP)
		return atoms.ElemDist(cuts), cuts, nil
	}
	return dist.Irregular{}, nil, fmt.Errorf("hpf: unknown partitioner %q", part)
}

// Describe renders the plan as a human-readable table, one line per
// array and per extension directive, in the same order every call.
func (pl *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "processors: %d", pl.NP)
	if pl.ProcName != "" {
		fmt.Fprintf(&b, " (%s)", strings.ToUpper(pl.ProcName))
	}
	b.WriteByte('\n')
	for _, n := range sortedKeys(pl.Arrays) {
		a := pl.Arrays[n]
		fmt.Fprintf(&b, "array %-8s size %-8d dist %-12s", a.Name, a.Size, a.Dist.Name())
		if a.AlignedTo != "" {
			fmt.Fprintf(&b, " aligned-with %s", a.AlignedTo)
		}
		if a.Dynamic {
			b.WriteString(" DYNAMIC")
		}
		b.WriteByte('\n')
	}
	for _, name := range sortedKeys(pl.Sparse) {
		sm := pl.Sparse[name]
		fmt.Fprintf(&b, "sparse %s format %s trio (%s, %s, %s)\n",
			name, strings.ToUpper(sm.Format), sm.Arrays[0], sm.Arrays[1], sm.Arrays[2])
	}
	for _, data := range sortedKeys(pl.AtomsOf) {
		ind := pl.AtomsOf[data]
		fmt.Fprintf(&b, "atoms  %s(ATOM:%s) :: %s(%s:%s)\n",
			data, ind.AtomVar, ind.Indir, ind.LoExpr, ind.HiExpr)
	}
	for _, arr := range sortedKeys(pl.AtomRedist) {
		fmt.Fprintf(&b, "redistribute %s (%s)\n", arr, *pl.AtomRedist[arr].Pat)
	}
	for _, arr := range sortedKeys(pl.Partitioners) {
		fmt.Fprintf(&b, "redistribute %s USING %s\n", arr, strings.ToUpper(pl.Partitioners[arr]))
	}
	for _, it := range pl.Iterations {
		fmt.Fprintf(&b, "iteration %s ON PROCESSOR(%s), %d clause(s)\n",
			it.Var, exprSrc(it.MapExpr), len(it.Clauses))
	}
	return b.String()
}

// sortedKeys lists m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
