package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"hpfcg/internal/cluster"
	"hpfcg/internal/comm"
	"hpfcg/internal/core"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/hpfexec"
	"hpfcg/internal/inspector"
	"hpfcg/internal/mfree"
	"hpfcg/internal/mg"
	"hpfcg/internal/serve"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
)

// The traced pass has two halves. The fixed half times every layer's
// public calls on inputs that do not depend on the workload, so one
// layer metric means the same thing in all five outputs. The workload
// half replays one job of the workload stage by stage and reads the
// service's own stamps from the traced round.

// stage times k repetitions of body on every rank between two barriers
// and returns the time per repetition. With one P the ranks run in
// turn, so rank 0's reading covers all of them: it is the wall time of
// one distributed operation.
func stage(p *comm.Proc, k int, body func()) time.Duration {
	body()
	p.Barrier()
	t0 := time.Now()
	for i := 0; i < k; i++ {
		body()
	}
	p.Barrier()
	return time.Since(t0) / time.Duration(k)
}

// kernels is what one problem's operator costs, per distributed call.
type kernels struct {
	build                    time.Duration // operator (and hierarchy) construction on all ranks
	apply, vec, reduce, prec time.Duration // ApplyDot; the three vector updates; one allreduce; one V-cycle
	applyAllocs              float64
	precFlops                float64 // flops the machine charged for one V-cycle, all ranks
	n, nnz, levels, pcgIters int
}

// layerOf names the module that owns a problem kind's operator.
var layerOf = map[string]string{"csr": "spmv", "mfree": "mfree", "hpcg": "mg"}

// iteration is the measured cost of one solver iteration's kernels and
// collectives: CG runs ApplyDot, three vector updates and two scalar
// allreduces; PCG adds a V-cycle (its extra local dot is not timed).
func (k kernels) iteration() time.Duration {
	return k.apply + k.vec + 2*k.reduce + k.prec
}

// kernelStage builds pb's operator inside one Machine.Run at np ranks
// and times its kernels there, each under a span.
func kernelStage(tr *tracer, parent int, pb problem, reps int) (kernels, error) {
	var A *sparse.CSR
	var rhs []float64
	switch pb.kind {
	case "csr":
		var err error
		if A, err = sparse.GeneratorByName(pb.matrix); err != nil {
			return kernels{}, err
		}
	case "hpcg":
		rhs = sparse.RandomVector(pb.global().N(), 1)
	}
	var k kernels
	var runErr error
	flops := make([]int64, np)
	run := tr.begin("comm", "Machine.Run", parent, 0)
	newMachine(np).Run(func(p *comm.Proc) {
		lead := p.Rank() == 0
		span := func(layer, name string) int {
			if !lead {
				return -1
			}
			return tr.begin(layer, name, run, 0)
		}

		var op spmv.Operator
		var M core.Preconditioner
		var d dist.Dist
		var levels, pcgIters int
		p.Barrier()
		t0 := time.Now()
		s := span(layerOf[pb.kind], "operator construction")
		switch pb.kind {
		case "csr":
			bd := dist.NewBlock(A.NRows, np)
			op, d = spmv.NewRowBlockCSRGhost(p, A, bd), bd
		case "mfree":
			mop, err := mfree.New(p, pb.stencil)
			if err != nil {
				runErr = err
				return
			}
			op, d = mop, mop.Dist()
		case "hpcg":
			prob, err := mg.NewProblem(p, pb.brick)
			if err != nil {
				runErr = err
				return
			}
			op, M, d = prob.Operator(), prob.Precond(), prob.Dist()
			levels = prob.Levels()
		}
		p.Barrier()
		tr.end(s)
		build := time.Since(t0)

		x, y, r := darray.New(p, d), darray.New(p, d), darray.New(p, d)
		x.Fill(1)
		r.Fill(1)
		applyDot := func() { op.Apply(x, y); x.DotLocal(y) }
		if f, ok := op.(spmv.FusedOperator); ok {
			applyDot = func() { f.ApplyDot(x, y) }
		}

		var ms0, ms1 runtime.MemStats
		if lead {
			runtime.ReadMemStats(&ms0)
		}
		s = span("spmv", "ApplyDot x K")
		apply := stage(p, reps, applyDot)
		tr.end(s)
		if lead {
			runtime.ReadMemStats(&ms1)
		}

		s = span("darray", "AXPY+AXPYNormSq+AYPX x K")
		vec := stage(p, reps, func() {
			y.AXPY(1e-9, x)
			r.AXPYNormSqLocal(-1e-9, y)
			x.AYPX(0.5, r)
		})
		tr.end(s)

		s = span("comm", "AllreduceScalar x K")
		reduce := stage(p, 8*reps, func() { p.AllreduceScalar(1, comm.OpSum) })
		tr.end(s)

		var prec time.Duration
		if M != nil {
			s = span("mg", "V-cycle x K")
			f0 := p.Stats().Flops
			prec = stage(p, max(reps/4, 2), func() { M.Apply(r, y) })
			flops[p.Rank()] = (p.Stats().Flops - f0) / int64(max(reps/4, 2)+1)
			tr.end(s)

			// One whole preconditioned solve in the same run, for its
			// iteration count.
			s = span("core", "PCG")
			b, sol := darray.New(p, d), darray.New(p, d)
			b.SetGlobal(func(g int) float64 { return rhs[g] })
			st, err := core.PCG(p, op, M, b, sol, core.Options{Tol: tol})
			tr.end(s)
			if err != nil {
				runErr = err
				return
			}
			pcgIters = st.Iterations
		}
		if lead {
			k.build, k.apply, k.vec, k.reduce, k.prec = build, apply, vec, reduce, prec
			k.applyAllocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(reps+1)
			k.n, k.nnz, k.levels, k.pcgIters = op.N(), op.NNZ(), levels, pcgIters
		}
	})
	tr.end(run)
	for _, f := range flops {
		k.precFlops += float64(f)
	}
	return k, runErr
}

// gflops is flops per call over seconds per call, in 1e9/s.
func gflops(flops float64, per time.Duration) float64 {
	if per <= 0 {
		return 0
	}
	return flops / per.Seconds() / 1e9
}

// csrBytesPerFlop is the computed traffic of a CSR mat-vec over its two
// flops per stored entry, every array streamed once: value and column
// index per entry; row pointer, x, and y with its write-allocate read
// per row. Repeated misses on x are not in it.
func csrBytesPerFlop(n, nnz int) float64 {
	return float64(16*nnz+32*n) / float64(2*nnz)
}

// mfreeBytesPerFlop is the same for a matrix-free apply: x read and y
// written (with its write-allocate read) per point; no operator bytes.
func mfreeBytesPerFlop(n, nnz int) float64 {
	return float64(24*n) / float64(2*nnz)
}

// The standard problems of the fixed half: the three solve workloads'
// own, so their kernels are measured at the sizes that are gated.
var (
	stdCSR   = problem{kind: "csr", matrix: "laplace2d:128:128"}
	stdMfree = problem{kind: "mfree", stencil: mfree.Spec{Stencil: "27pt", Nx: 32, Ny: 32, Nz: 32}}
	stdHPCG  = problem{kind: "hpcg", brick: brick(20)}
)

func brick(n int) mg.Spec { return mg.Spec{Nx: n, Ny: n, Nz: n, Levels: 3} }

// Streaming sizes: operands at least three times L2, so the kernel runs
// from memory and can be held against the triad. 96 cubed keeps x and y
// at 14 MB; 64 cubed would put them at exactly L2.
var (
	streamCSR   = problem{kind: "csr", matrix: "laplace2d:512:512"}
	streamMfree = problem{kind: "mfree", stencil: mfree.Spec{Stencil: "27pt", Nx: 96, Ny: 96, Nz: 96}}
)

// fixedLayers is the workload-independent half of the traced pass.
func fixedLayers(tr *tracer, out values) error {
	root := tr.begin("bench", "fixed layer pass", -1, 0)
	defer tr.end(root)

	// comm: what an empty SPMD run costs, and one scalar allreduce.
	m := newMachine(np)
	const spinups = 300
	s := tr.begin("comm", "Machine.Run(empty) x K", root, 0)
	win := openWindow()
	for i := 0; i < spinups; i++ {
		m.Run(func(*comm.Proc) {})
	}
	wall, _, mallocs := win.close()
	tr.end(s)
	out["comm.run_spinup_us"] = 1e6 * wall / spinups
	out["comm.allocs_per_run"] = float64(mallocs) / spinups

	// spmv, darray, comm on the in-L2 CSR problem.
	kc, err := kernelStage(tr, root, stdCSR, 200)
	if err != nil {
		return err
	}
	out["comm.allreduce_scalar_us"] = us(kc.reduce)
	out["spmv.csr_apply_gflops"] = gflops(2*float64(kc.nnz), kc.apply)
	out["spmv.csr_apply_ns_per_nnz"] = float64(kc.apply.Nanoseconds()) / float64(kc.nnz)
	out["spmv.csr_bytes_per_flop"] = csrBytesPerFlop(kc.n, kc.nnz)
	out["spmv.apply_allocs"] = kc.applyAllocs
	out["inspector.build_ms"] = ms(kc.build)

	if err := cscMerge(tr, root, out); err != nil {
		return err
	}

	// mfree and mg at the gated sizes.
	km, err := kernelStage(tr, root, stdMfree, 100)
	if err != nil {
		return err
	}
	out["mfree.apply_gflops"] = gflops(2*float64(km.nnz), km.apply)
	out["mfree.apply_ns_per_point"] = float64(km.apply.Nanoseconds()) / float64(km.n)
	kh, err := kernelStage(tr, root, stdHPCG, 12)
	if err != nil {
		return err
	}
	out["mg.vcycle_ms"] = ms(kh.prec)
	out["mg.vcycle_gflops"] = gflops(kh.precFlops, kh.prec)
	out["mg.operator_apply_gflops"] = gflops(2*float64(kh.nnz), kh.apply)
	out["mg.problem_build_ms"] = ms(kh.build)
	out["mg.levels"] = float64(kh.levels)
	out["mg.pcg_iterations"] = float64(kh.pcgIters)

	if err := streams(tr, root, out); err != nil {
		return err
	}
	vectorsAndHalo(tr, root, out)
	if err := sparseLayer(tr, root, out); err != nil {
		return err
	}
	if err := registryLayer(tr, root, out); err != nil {
		return err
	}
	if err := submitDirect(tr, root, out); err != nil {
		return err
	}

	ring := cluster.NewRing([]string{"shard-0", "shard-1"}, 0)
	const lookups = 200000
	s = tr.begin("cluster", "Ring.Owner x K", root, 0)
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		ring.Owner("0123456789abcdef")
	}
	out["cluster.ring_owner_ns"] = float64(time.Since(t0).Nanoseconds()) / lookups
	tr.end(s)
	return nil
}

// cscMerge times the same matrix through ColBlockCSC in private-merge
// mode: the paper's many-to-one accumulate, the write direction of the
// spmv layer.
func cscMerge(tr *tracer, parent int, out values) error {
	A, err := sparse.GeneratorByName(stdCSR.matrix)
	if err != nil {
		return err
	}
	csc := A.ToCSC()
	s := tr.begin("spmv", "ColBlockCSC.Apply x K", parent, 0)
	defer tr.end(s)
	newMachine(np).Run(func(p *comm.Proc) {
		d := dist.NewBlock(A.NRows, np)
		op := spmv.NewColBlockCSC(p, csc, d, spmv.ModePrivateMerge)
		x, y := darray.New(p, d), darray.New(p, d)
		x.Fill(1)
		per := stage(p, 100, func() { op.Apply(x, y) })
		if p.Rank() == 0 {
			out["spmv.csc_merge_apply_ns_per_nnz"] = float64(per.Nanoseconds()) / float64(A.NNZ())
		}
	})
	return nil
}

// streams holds the two out-of-cache kernels against the triad, taken
// alternately so a slow host phase hits both sides alike.
func streams(tr *tracer, parent int, out values) error {
	tri := newTriad()
	var triad, csr, mf []float64
	var kc, km kernels
	for rep := 0; rep < 3; rep++ {
		s := tr.begin("host", "triad", parent, 0)
		triad = append(triad, tri.gbs())
		tr.end(s)
		var err error
		if kc, err = kernelStage(tr, parent, streamCSR, 4); err != nil {
			return err
		}
		csr = append(csr, gflops(2*float64(kc.nnz), kc.apply))
		s = tr.begin("host", "triad", parent, 0)
		triad = append(triad, tri.gbs())
		tr.end(s)
		if km, err = kernelStage(tr, parent, streamMfree, 3); err != nil {
			return err
		}
		mf = append(mf, gflops(2*float64(km.nnz), km.apply))
	}
	gbs := percentile(triad, 50)
	out["host.triad_gbs"] = gbs
	out["spmv.csr_stream_gflops"] = percentile(csr, 50)
	out["spmv.csr_stream_roofline_share"] = percentile(csr, 50) / (gbs / csrBytesPerFlop(kc.n, kc.nnz))
	out["mfree.stream_gflops"] = percentile(mf, 50)
	// A matrix-free apply moves 24 bytes per point for 2 x 27 flops: its
	// memory roofline is far above what the loop reaches, which is the
	// point of printing the share.
	out["mfree.stream_roofline_share"] = percentile(mf, 50) / (gbs / mfreeBytesPerFlop(km.n, km.nnz))
	return nil
}

// vectorsAndHalo times darray's updates and gather, the inspector's
// exchange and mfree's geometric halo on the solve_mfree vector size.
func vectorsAndHalo(tr *tracer, parent int, out values) {
	spec := stdMfree.stencil.WithDefaults()
	n := spec.N()
	s := tr.begin("darray", "vector kernels", parent, 0)
	defer tr.end(s)
	newMachine(np).Run(func(p *comm.Proc) {
		d := dist.NewBlock(n, np)
		x, y := darray.New(p, d), darray.New(p, d)
		x.Fill(1)
		axpy := stage(p, 2000, func() { y.AXPY(1e-9, x) })
		dot := stage(p, 2000, func() { x.DotLocal(y) })
		full := make([]float64, n)
		gather := stage(p, 200, func() { x.GatherInto(full) })

		// The inspector's schedule for a one-plane halo in both
		// directions: what the CSR ghost executor exchanges per apply.
		plane := spec.Nx * spec.Ny
		var needs []int
		lo := d.Lo(p.Rank())
		for g := max(lo-plane, 0); g < lo; g++ {
			needs = append(needs, g)
		}
		hi := lo + d.Count(p.Rank())
		for g := hi; g < min(hi+plane, n); g++ {
			needs = append(needs, g)
		}
		sched := inspector.Build(p, d, needs)
		exch := stage(p, 500, func() { sched.Exchange(x.Local()) })

		b, _ := spec.Brick(np) // the spec is a compiled-in literal that validates
		halo := mfree.NewHalo(p, b)
		geo := stage(p, 500, func() { halo.Exchange(x.Local()) })
		if p.Rank() == 0 {
			// Computed bytes: AXPY reads x and y and writes y; a dot reads
			// both. These vectors sit in L2, so no write-allocate is added.
			out["darray.axpy_gbs"] = 24 * float64(n) / axpy.Seconds() / 1e9
			out["darray.dot_gbs"] = 16 * float64(n) / dot.Seconds() / 1e9
			out["darray.gather_us"] = us(gather)
			out["inspector.exchange_us"] = us(exch)
			out["mfree.halo_exchange_us"] = us(geo)
		}
	})
}

// sparseLayer times matrix generation, Matrix Market parsing and the
// content hash.
func sparseLayer(tr *tracer, parent int, out values) error {
	s := tr.begin("sparse", "generate / parse / hash", parent, 0)
	defer tr.end(s)
	var gen []float64
	var A *sparse.CSR
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		var err error
		if A, err = sparse.GeneratorByName(stdCSR.matrix); err != nil {
			return err
		}
		gen = append(gen, ms(time.Since(t0)))
	}
	out["sparse.generate_ms"] = percentile(gen, 50)

	var sb strings.Builder
	if err := sparse.WriteMatrixMarket(&sb, A); err != nil {
		return err
	}
	doc := sb.String()
	const parses = 5
	t0 := time.Now()
	for i := 0; i < parses; i++ {
		if _, err := sparse.ReadMatrixMarket(strings.NewReader(doc)); err != nil {
			return err
		}
	}
	out["sparse.mm_parse_mbs"] = parses * float64(len(doc)) / time.Since(t0).Seconds() / 1e6

	const hashes = 20
	csrBytes := float64(8 * (len(A.RowPtr) + len(A.Col) + len(A.Val)))
	t0 = time.Now()
	for i := 0; i < hashes; i++ {
		sparse.ContentHash(A)
	}
	out["sparse.content_hash_mbs"] = hashes * csrBytes / time.Since(t0).Seconds() / 1e6
	return nil
}

// registryLayer times a plan-registry hit, and a Put into a full
// registry (every Put evicts).
func registryLayer(tr *tracer, parent int, out values) error {
	s := tr.begin("hpfexec", "Registry Get / Put", parent, 0)
	defer tr.end(s)
	m := newMachine(np)
	handle := func(i int) (*hpfexec.Prepared, error) {
		return hpfexec.PrepareStencil(m, mfree.Spec{Stencil: "5pt", Nx: 16 + i%64, Ny: 16})
	}
	reg := hpfexec.NewRegistry(0)
	for i := 0; i < 6; i++ {
		pr, err := handle(i)
		if err != nil {
			return err
		}
		reg.Put(fmt.Sprint("key-", i), pr)
	}
	const gets = 200000
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		reg.Get("key-3")
	}
	out["hpfexec.registry_get_ns"] = float64(time.Since(t0).Nanoseconds()) / gets

	first, err := handle(0)
	if err != nil {
		return err
	}
	small := hpfexec.NewRegistry(2*first.MemoryBytes() + 1)
	const puts = 2000
	prs := make([]*hpfexec.Prepared, puts)
	for i := range prs {
		if prs[i], err = handle(0); err != nil {
			return err
		}
	}
	t0 = time.Now()
	for i, pr := range prs {
		small.Put(fmt.Sprint("key-", i), pr)
	}
	out["hpfexec.registry_put_evict_us"] = 1e6 * time.Since(t0).Seconds() / puts
	if small.Stats().Evictions < puts-3 {
		return fmt.Errorf("registry bench: %d evictions for %d puts", small.Stats().Evictions, puts)
	}
	return nil
}

// submitDirect times a hot job through the scheduler with no HTTP
// around it: Submit until Done.
func submitDirect(tr *tracer, parent int, out values) error {
	s := tr.begin("serve", "Scheduler.Submit -> Done x K", parent, 0)
	defer tr.end(s)
	sched := serve.New(serve.Options{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = sched.Drain(ctx)
	}()
	spec := serve.JobSpec{Matrix: "laplace2d:32:32", NP: np, Tol: tol}
	var per []float64
	for i := 0; i < 41; i++ {
		spec.Seed = int64(i + 1)
		t0 := time.Now()
		j, err := sched.Submit(spec)
		if err != nil {
			return err
		}
		<-j.Done()
		if i > 0 { // the first is the cold one
			per = append(per, us(time.Since(t0)))
		}
	}
	out["serve.submit_direct_us"] = percentile(per, 50)
	return nil
}

// decodeCost times what the service does with a request body before it
// can queue it: JSON decode and the matrix content hash.
func decodeCost(body []byte) (float64, error) {
	const reps = 20
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		var spec serve.JobSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return 0, err
		}
		if _, err := spec.ContentHash(); err != nil {
			return 0, err
		}
	}
	return 1e6 * time.Since(t0).Seconds() / reps, nil
}

// replay runs one job of pb stage by stage — bring-up, cold solve, warm
// solve, warm solve of a zero right-hand side, then the kernels inside
// one Machine.Run — and fills the metrics that describe this workload's
// job rather than a layer in isolation.
func replay(tr *tracer, pb problem, b []float64, out values) error {
	root := tr.begin("bench", "staged replay", -1, 0)
	defer tr.end(root)

	t0 := time.Now()
	p, err := pb.bringUp(tr, root, np)
	if err != nil {
		return err
	}
	prep := time.Since(t0)
	solve := func(name string, rhs []float64) (*hpfexec.BatchResult, time.Duration, error) {
		s := tr.begin("hpfexec", name, root, 0)
		t := time.Now()
		res, err := p.pr.SolveBatch([][]float64{rhs}, solveOpts)
		d := time.Since(t)
		tr.end(s)
		return res, d, err
	}
	cold, tCold, err := solve("SolveBatch(cold)", b)
	if err != nil {
		return err
	}
	var warm *hpfexec.BatchResult
	var warmT []float64
	for i := 0; i < 3; i++ {
		res, d, err := solve("SolveBatch(warm)", b)
		if err != nil {
			return err
		}
		warm, warmT = res, append(warmT, d.Seconds())
	}
	tWarm := percentile(warmT, 50)
	zero := make([]float64, len(b))
	var floor []float64
	for i := 0; i < 15; i++ {
		_, d, err := solve("SolveBatch(zero rhs)", zero)
		if err != nil {
			return err
		}
		floor = append(floor, d.Seconds())
	}
	tFloor := percentile(floor, 50)

	k, err := kernelStage(tr, root, pb, 50)
	if err != nil {
		return err
	}

	st, run := warm.Results[0].Stats, warm.Run
	it := float64(max(st.Iterations, 1))
	out["hpfexec.prepare_cold_ms"] = 1e3 * (prep.Seconds() + tCold.Seconds() - tWarm)
	out["hpfexec.warm_floor_us"] = 1e6 * tFloor
	out["hpfexec.model_setup_s"] = cold.SetupModelTime
	out["hpfexec.plan_memory_mb"] = float64(p.pr.MemoryBytes()) / 1e6
	out["comm.msgs_per_iter"] = float64(run.TotalMsgs) / it
	out["comm.bytes_per_iter"] = float64(run.TotalBytes) / it
	out["comm.model_comm_share"] = run.CommTime() / run.ModelTime
	out["core.iterations_per_job"] = float64(st.Iterations)
	out["core.reductions_per_iter"] = float64(st.Reductions) / it
	out["core.wall_us_per_iter"] = 1e6 * (tWarm - tFloor) / it
	out["core.wall_gflops"] = float64(run.TotalFlops) / tWarm / 1e9
	out["core.unattributed_share"] = (tWarm - tFloor - it*k.iteration().Seconds()) / tWarm
	return nil
}

// layers of a solve workload: replay its own job. No service runs, so
// the serve and cluster traffic metrics stay zero.
func (w *solveWorkload) layers(tr *tracer, _ []*roundResult, out values) error {
	return replay(tr, w.pb, w.rhs[0], out)
}

// layers of a serve workload: replay its first job's problem on the
// solver stack, then read the service's own stamps from the rounds.
func (w *serveWorkload) layers(tr *tracer, rs []*roundResult, out values) error {
	if err := replay(tr, w.replayPB, sparse.RandomVector(w.replayN, w.replaySeed), out); err != nil {
		return err
	}
	dec, err := decodeCost(w.jobs[0].body)
	if err != nil {
		return err
	}
	out["serve.decode_us"] = dec

	var lat, queue, run, overhead []float64
	var batches, bytesSum, wall float64
	var refused, hits, miss uint64
	perShard := map[string]float64{}
	for _, r := range rs {
		wall += r.wallS
		hits, miss = hits+r.hits, miss+r.miss
		for _, j := range r.jobs {
			lat = append(lat, j.ms)
			if j.refuse {
				refused++
			}
			if !j.ok {
				continue
			}
			queue, run = append(queue, j.queueMS), append(run, j.runMS)
			overhead = append(overhead, j.ms-j.queueMS-j.runMS)
			batches += 1 / float64(max(j.batch, 1))
			bytesSum += float64(j.bytes)
			if j.shard != "" {
				perShard[j.shard]++
			}
		}
	}
	n := float64(len(lat))
	out["serve.queue_ms_p50"] = percentile(queue, 50)
	out["serve.run_ms_p50"] = percentile(run, 50)
	out["serve.http_overhead_ms_p50"] = percentile(overhead, 50)
	out["serve.batch_occupancy_mean"] = float64(len(queue)) / batches
	out["serve.rejected_share"] = float64(refused) / n
	out["serve.result_bytes_per_job"] = bytesSum / float64(len(queue))
	out["serve.job_ms_p99"], _ = tailPercentile(lat, 99)
	out["serve.jobs_per_s"] = n / wall
	out["hpfexec.registry_hit_share"] = float64(hits) / float64(max(hits+miss, 1))
	if len(perShard) > 0 {
		lo, hi := n, 0.0
		for _, c := range perShard {
			lo, hi = min(lo, c), max(hi, c)
		}
		out["cluster.shard_balance"] = hi / lo
		return w.proxyHop(tr, out)
	}
	return nil
}

// proxyHop prices the router: one set of distinct cold uploads sent
// through it, another sent straight to the shard that owns each, one
// job at a time; the difference of the medians is the hop.
func (w *serveWorkload) proxyHop(tr *tracer, out values) error {
	root := tr.begin("bench", "proxy hop", -1, 0)
	defer tr.end(root)
	env, err := clusterService()
	if err != nil {
		return err
	}
	defer env.close()
	ring := env.router.Membership().Ring()
	var via, direct []float64
	for i := 0; i < 2*hopJobs; i++ {
		// Family members past the warm-up upload: matrices no round has sent.
		straight := i%2 == 1
		jb, err := upload(len(w.jobs)+1+i, false, straight)
		if err != nil {
			return err
		}
		base := env.front
		if straight {
			hash, err := jb.spec.ContentHash()
			if err != nil {
				return err
			}
			owner, _ := ring.Owner(hash)
			base = env.shards[owner]
		}
		res := env.do(tr, root, i, base, &jb)
		if !res.ok {
			return fmt.Errorf("proxy-hop job %d failed: %s", i, res.why)
		}
		if straight {
			direct = append(direct, res.ms)
		} else {
			via = append(via, res.ms)
		}
	}
	out["cluster.proxy_hop_ms_p50"] = percentile(via, 50) - percentile(direct, 50)
	return nil
}
