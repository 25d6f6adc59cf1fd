# Build/test entry points. `make check` is the documented pre-merge
# gate: full build, vet, the whole test suite, and a race-detector
# pass over the concurrency-heavy packages (the SPMD machine and the
# tracing subsystem that hooks into it).

GO ?= go

.PHONY: all build vet test race check smoke golden bench fuzz quick docs-lint loc

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The SPMD machine runs every virtual processor as a goroutine and the
# tracer writes per-rank logs from all of them; the solvers and the
# mat-vec kernels now share pooled buffers and workspaces across those
# goroutines, so they race-test too. The fault injector and the
# checkpoint store are shared across ranks and restart attempts, so
# internal/fault and hpfexec's resilient variant join the pass. The
# solver service multiplexes jobs across worker goroutines and batches,
# so internal/serve joins too. The cluster router proxies concurrent
# submissions and merges metrics scrapes across
# goroutines, so internal/cluster joins the pass. The matrix-free
# operator runs the inspector's exchange on its plane schedule every
# iteration, moving pooled plane buffers between rank goroutines, so
# internal/mfree joins the pass. The multigrid V-cycle
# runs those exchanges on every level and moves pooled transfer planes
# between neighbours, so internal/mg joins the pass. The CSR halo
# executor fills its slot vector from the inspector schedule's pooled
# receive path on every iteration, and that exchange loop is the only
# one the halo executors and the stencil operators share, so
# internal/inspector joins the pass. The csc-merge executor's private region merges by
# running the inspector's schedule in reverse, moving pooled partial-sum
# buffers between rank goroutines, so internal/forall joins the pass. An
# unobserved run's allreduce is a rendezvous whose
# last arriving rank replays the tree onto every other rank's clock,
# stats and communication-matrix row while those ranks wait, so the
# comm pass also checks that the rendezvous orders those writes before
# each rank's wake.
race:
	$(GO) test -race ./internal/comm/... ./internal/trace/... ./internal/core/... ./internal/spmv/... ./internal/inspector/... ./internal/forall/... ./internal/fault/... ./internal/hpfexec/... ./internal/serve/... ./internal/cluster/... ./internal/mg/... ./internal/mfree/...

check: build vet test race smoke docs-lint

# Documentation and reachability floor: every package carries a package
# doc comment, the strict packages (internal/comm, internal/core,
# internal/hpfexec) document every exported identifier, and every
# exported identifier in internal/ is reached from non-test code (a use
# go/types resolves to it, not a name that matches) or allow-listed with
# its reason. See cmd/doclint; its own tests run the same rules under
# `test`.
docs-lint:
	$(GO) run ./cmd/doclint

# The experiments' committed full-size output. `go test ./internal/bench`
# fails on any differing byte; a change that moves a modeled number
# regenerates the file here and names the moved tables in CHANGES.md.
golden:
	$(GO) run ./cmd/cgbench > internal/bench/testdata/experiments.golden

# The binaries end to end, one mode each (the experiments and their
# enforced claims already run under `test`); every line exits non-zero
# when its own check fails, and together they set every flag, route and
# job field cmd/doclint's surface ledger lists. hpfrun through one
# -problem string per backend: multigrid (at a chosen depth and smoothing
# count), matrix-free (5-point; 27-point on two-plane slabs so ghost and
# local source planes both occur, plain and pipelined), a generator under
# -demo and under a directive file, and one -variant string per
# recurrence: pipelined CSR, fixed-factor s-step CG, auto (the cost
# model's cheapest variant, pipelined at np 8 on a matrix and at np 4 on
# a 5-point stencil), and each §2.1 method — BiCGSTAB on the CSC
# private-merge layout, BiCG on the default layout, whose executor must
# apply A^T, PCG with point Jacobi on a matrix whose diagonal varies, and
# CGS on the CSC serial layout; plain CG on block rows and under the
# balanced partitioner; a resilient solve absorbing an injected crash
# under a restart budget — each of multigrid, 5-point and resilient once
# more under the -timeout deadline every mode shares — and one absorbing
# a dropped message; a Matrix Market file on a ring at a chosen tolerance
# and iteration cap, with the communication matrix and the residual
# history (a solve that does not converge exits 2), and two directive
# files: the CSR program, and the CSC program whose ITERATION line's ON
# PROCESSOR map Prepare evaluates over every column (n = 250 at np 4,
# where np does not divide n) and would refuse if it were not the
# executor's.
# Then hpfserve's self-checks: a table of jobs over real HTTP on a shard
# sized by every pool flag (each job field set, each result and view
# field read back, traces, probes, metrics, the -maxnp bound, readiness
# 503 after the drain), and a router plus two shards listed by GET
# /cluster/nodes, routing repeat traffic to the shard that holds the
# plan and a trace back through the router. Then the kept examples, each
# of which exits non-zero when its own check fails (heat and laplace2d
# under both operator backends), two experiments (one on a ring with
# another seed, one under an injected straggler), and three traced
# experiments that write their trace.json files into SMOKE_DIR/traces:
# E7, which builds no machine and so traces none; E17, whose machines
# change a cost constant per row; and E2 on a ring at another seed under
# a straggler. The Matrix Market file (the 4 x 4 1-D Laplacian, stored
# symmetric) and the two directive files are written into SMOKE_DIR
# first, not committed.
SMOKE_DIR = .smoke
smoke:
	mkdir -p $(SMOKE_DIR)
	printf '%s\n' '%%MatrixMarket matrix coordinate real symmetric' '4 4 7' '1 1 2' '2 1 -1' '2 2 2' '3 2 -1' '3 3 2' '4 3 -1' '4 4 2' > $(SMOKE_DIR)/laplace1d4.mtx
	printf '%s\n' '!HPF$$ PROCESSORS :: PROCS(NP)' '!HPF$$ DISTRIBUTE p(BLOCK)' '!HPF$$ SPARSE_MATRIX (CSR) :: smA(row, col, a)' > $(SMOKE_DIR)/csr.hpf
	printf '%s\n' '!HPF$$ PROCESSORS :: PROCS(NP)' '!HPF$$ DISTRIBUTE p(BLOCK)' '!HPF$$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)' '!EXT$$ ITERATION j ON PROCESSOR(((j+1)*np+n-1)/n-1), PRIVATE(q(n)) WITH MERGE(+)' > $(SMOKE_DIR)/csc-merge.hpf
	$(GO) run ./cmd/hpfrun -problem hpcg:6x6x6:L2:S2 -np 4 > /dev/null
	$(GO) run ./cmd/hpfrun -problem hpcg:6x6x6 -timeout 30s > /dev/null
	$(GO) run ./cmd/hpfrun -problem stencil:5pt:32x24 -np 4 > /dev/null
	$(GO) run ./cmd/hpfrun -problem stencil:5pt:32x24 -timeout 30s > /dev/null
	$(GO) run ./cmd/hpfrun -problem stencil:27pt:8x8x8 -np 4 > /dev/null
	$(GO) run ./cmd/hpfrun -problem stencil:27pt:8x8x8 -np 4 -variant pipelined > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -problem banded:256:4 -demo csr -variant pipelined > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -demo csr -variant sstep:4 > /dev/null
	$(GO) run ./cmd/hpfrun -np 8 -problem laplace2d:32:32 -variant auto > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -problem stencil:5pt:48x48 -variant auto > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -problem randspd:500:6:1 -demo csc-merge -variant bicgstab > /dev/null
	$(GO) run ./cmd/hpfrun -np 8 -problem laplace2d:64:64 > /dev/null
	$(GO) run ./cmd/hpfrun -np 8 -problem powerlaw:2000:1 -demo balanced > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -problem laplace2d:32:32 -variant bicg > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -problem randspd:500:6:1 -variant pcg > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -problem laplace2d:32:32 -demo csc-serial -variant cgs > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -demo csr -fault "crash:rank=2@t=0.5ms" -variant resilient:ckpt=5,restarts=2 > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -demo csr -fault "crash:rank=2@t=0.5ms" -variant resilient:ckpt=5 -timeout 30s > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -demo csr -fault "drop:rank=1,n=1,dst=0" -variant resilient > /dev/null
	$(GO) run ./cmd/hpfrun -np 2 -file $(SMOKE_DIR)/laplace1d4.mtx -demo csr -topology ring -tol 1e-8 -maxiter 50 -commmatrix -history > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -problem banded:256:4 $(SMOKE_DIR)/csr.hpf > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -problem banded:250:4 $(SMOKE_DIR)/csc-merge.hpf > /dev/null
	$(GO) run ./cmd/hpfserve -smoke -workers 1 -queue 8 -batch 2 -maxnp 8 -plan-cache-mb 16
	$(GO) run ./cmd/hpfserve -cluster-smoke
	$(GO) run ./examples/heat -backend mfree > /dev/null
	$(GO) run ./examples/heat -backend assembled > /dev/null
	$(GO) run ./examples/laplace2d -backend mfree > /dev/null
	$(GO) run ./examples/laplace2d -backend assembled > /dev/null
	$(GO) run ./cmd/cgbench -quick -exp E1 -topology ring -seed 7 > /dev/null
	$(GO) run ./cmd/cgbench -quick -exp E2 -fault "straggle:rank=1,x=4" > /dev/null
	$(GO) run ./cmd/cgbench -quick -exp E7,E17 -trace $(SMOKE_DIR)/traces > /dev/null
	$(GO) run ./cmd/cgbench -quick -exp E2 -topology ring -seed 7 -fault "straggle:rank=1,x=4" -trace $(SMOKE_DIR)/traces > /dev/null


# Non-test, non-blank, non-comment lines: internal/hpfexec +
# internal/serve (the solve path and the service), then internal/bench +
# internal/report + cmd/cgbench (the experiment harness), then
# internal/mg + internal/mfree (the stencil kernels and the hierarchy
# built on them), then internal/core + internal/spmv (the solvers and
# the assembled mat-vec executors), then internal/comm +
# internal/topology (the modeled machine, its collectives and their
# closed-form costs), then every Go package in the module (testdata
# excluded).
loc:
	@ls internal/hpfexec/*.go internal/serve/*.go | grep -v _test.go | xargs cat | grep -cvE '^[[:space:]]*(//|$$)'
	@ls internal/bench/*.go internal/report/*.go cmd/cgbench/*.go | grep -v _test.go | xargs cat | grep -cvE '^[[:space:]]*(//|$$)'
	@ls internal/mg/*.go internal/mfree/*.go | grep -v _test.go | xargs cat | grep -cvE '^[[:space:]]*(//|$$)'
	@ls internal/core/*.go internal/spmv/*.go | grep -v _test.go | xargs cat | grep -cvE '^[[:space:]]*(//|$$)'
	@ls internal/comm/*.go internal/topology/*.go | grep -v _test.go | xargs cat | grep -cvE '^[[:space:]]*(//|$$)'
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | grep -cvE '^[[:space:]]*(//|$$)'

# Kernel guards in their own units: an empty Run on one reused machine
# at np 2, 4, 8 (BenchmarkRun: ns/op, allocs/op — the unit behind the
# benchmark's comm.allocs_per_run), the modeled machine's send path
# (allocation counts) and its one tree allreduce at np 2, 4, 8 over 1, 2
# and 45 words (ns/op, zero allocs), the one ghost exchange on a CSR
# halo schedule (solve_csr's matrix) and on the stencil plane schedules
# of solve_mfree and serve_hot at np 2, 4, 8 over 1 and 2 vectors (ns/op,
# zero allocs), the same executor run in reverse — the csc-merge merge —
# on the halos of serve_hot's csc-merge matrix and solve_csr's at np 2,
# 4, 8 (ns/op, zero allocs), the inspector that builds those schedules
# on solve_csr's matrix and a serve_cold upload (ns/op, allocs), CG's
# local vector updates and dot partials at a served job's block and a
# large one, with pipelined CG's fused update beside the eight calls it
# replaces (BenchmarkVectorKernels: ns/element, zero allocs), a warm
# SolveBatch of the served pipelined keys, plain beside pipelined at np
# 4 (BenchmarkWarmSolveBatch: ns/op, allocs/op), the CSR halo and broadcast
# executors and the two CSC merges at solve_csr's matrix and an
# out-of-cache one (ns/nnz, GFLOP/s, zero allocs), the s-step pricing
# walk (spmv.PowersStats, every depth to 8) at serve_cold's upload shape
# (ns/op, a constant handful of allocs), the matrix-free apply kernels (ns/point, GFLOP/s, zero
# allocs), the multigrid smoother, residual and V-cycle at
# solve_hpcg's shape (ns/point-pass, GFLOP/s over charged flops, zero
# allocs) and the Matrix Market reader and COO-to-CSR conversion at serve_cold's upload
# shape (MB/s, a constant handful of allocs), and the job-spec decoder on
# a serve_cold body beside encoding/json over the same bytes (MB/s,
# allocs). Every other wall number comes from benchmark/.
bench:
	$(GO) test -bench . -benchmem -run NONE ./internal/comm/... ./internal/inspector/... ./internal/darray/... ./internal/spmv/... ./internal/mfree/... ./internal/mg/... ./internal/sparse/... ./internal/serve/... ./internal/hpfexec/...

# Every fuzz target, FUZZTIME each (`go test -fuzz` takes one target and
# one package per run). Under `test` they only replay their seeds. A
# failing input is written to the package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/sparse -run '^$$' -fuzz '^FuzzReadMatrixMarket$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sparse -run '^$$' -fuzz '^FuzzGeneratorByName$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeJobSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzFaultParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hpfexec -run '^$$' -fuzz '^FuzzParseProblem$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hpfexec -run '^$$' -fuzz '^FuzzParseVariant$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hpfexec -run '^$$' -fuzz '^FuzzBindPrepare$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hpf -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME)

# Small-size smoke run of every experiment.
quick:
	$(GO) run ./cmd/cgbench -quick
