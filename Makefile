# Build/test entry points. `make check` is the documented pre-merge
# gate: full build, vet, the whole test suite, and a race-detector
# pass over the concurrency-heavy packages (the SPMD machine and the
# tracing subsystem that hooks into it).

GO ?= go

.PHONY: all build vet test race check bench quick serve-smoke cluster-smoke e23-smoke mg-smoke mfree-smoke pipelined-smoke resilient-smoke docs-lint loc

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
# submissions, scatters sweeps and merges metrics scrapes across
# goroutines, so internal/cluster joins the pass. The multigrid
# V-cycle shares smoother scratch and inspector ghost buffers across
# all ranks of a run, so internal/mg joins the pass. The matrix-free
# halo exchange moves pooled plane buffers between rank goroutines every
# iteration, so internal/mfree joins the pass.
race:
	$(GO) test -race ./internal/comm/... ./internal/trace/... ./internal/core/... ./internal/spmv/... ./internal/fault/... ./internal/hpfexec/... ./internal/serve/... ./internal/cluster/... ./internal/mg/... ./internal/mfree/...

check: build vet test race e23-smoke mg-smoke mfree-smoke pipelined-smoke resilient-smoke serve-smoke cluster-smoke docs-lint

# Documentation floor: every package carries a package doc comment, and
# the strict packages (internal/comm, internal/core, internal/hpfexec)
# document every exported identifier. See cmd/doclint.
docs-lint:
	$(GO) run ./cmd/doclint

# Quick pass over the communication-avoiding s-step path: the E23
# tables exercise the matrix-powers kernel, the batched Gram recovery,
# the stability guard and the cost-model selector end to end.
e23-smoke:
	$(GO) run ./cmd/cgbench -exp E23 -quick > /dev/null

# Quick pass over the HPCG path: a V-cycle-preconditioned solve through
# hpfrun (smoother, transfers, FoM print), once more under the watchdog
# every backend now shares, plus the E24 sweep with its enforced
# pcg-beats-cg and bit-identity claims.
mg-smoke:
	$(GO) run ./cmd/hpfrun -hpcg 6,6,6 -np 4 > /dev/null
	$(GO) run ./cmd/hpfrun -hpcg 6,6,6 -timeout 30s > /dev/null
	$(GO) run ./cmd/cgbench -exp E24 -quick > /dev/null

# Quick pass over the matrix-free stencil path: an assembly-free solve
# through hpfrun (geometric halo, zero modeled setup), once more under
# the watchdog, the 27-point kernel through the same binary (plain and
# pipelined, two-plane slabs so ghost and local source planes both
# occur), plus the E25 sweep with its enforced bit-identity and
# setup-elimination claims.
mfree-smoke:
	$(GO) run ./cmd/hpfrun -stencil 5pt:32,24 -np 4 > /dev/null
	$(GO) run ./cmd/hpfrun -stencil 5pt:32,24 -timeout 30s > /dev/null
	$(GO) run ./cmd/hpfrun -stencil 27pt:8,8,8 -np 4 > /dev/null
	$(GO) run ./cmd/hpfrun -stencil 27pt:8,8,8 -np 4 -pipelined > /dev/null
	$(GO) run ./cmd/cgbench -exp E25 -quick > /dev/null

# Quick pass over the pipelined overlap path: a hidden-round solve
# through hpfrun (overlap books printed) plus the E26 latency-regime
# map with its enforced pipelined-beats-plain and frontier claims.
pipelined-smoke:
	$(GO) run ./cmd/hpfrun -np 4 -matrix banded:256:4 -demo csr -pipelined > /dev/null
	$(GO) run ./cmd/cgbench -exp E26 -quick > /dev/null

# Quick pass over the resilient variant through a binary: an injected
# crash absorbed by checkpoint/restart, once more under the watchdog
# that bounds every attempt.
resilient-smoke:
	$(GO) run ./cmd/hpfrun -np 4 -demo csr -fault "crash:rank=2@t=0.5ms" -resilient -ckpt 5 > /dev/null
	$(GO) run ./cmd/hpfrun -np 4 -demo csr -fault "crash:rank=2@t=0.5ms" -resilient -ckpt 5 -timeout 30s > /dev/null

# The size ROADMAP item 1 tracks: non-test, non-blank, non-comment
# lines of internal/hpfexec + internal/serve.
loc:
	@ls internal/hpfexec/*.go internal/serve/*.go | grep -v _test.go | xargs cat | grep -cvE '^[[:space:]]*(//|$$)'

# Modeled-machine benchmarks (send path allocation counts included)
# and the matrix-free apply kernels (ns/point, GFLOP/s, zero allocs),
# plus the E19 communication-avoidance, E20 resilience, E21 solver-
# service, E22 cluster, E23 s-step, E24 HPCG, E25 matrix-free and E26
# pipelined-overlap smoke runs with JSON snapshots for regression
# diffing.
bench:
	$(GO) test -bench . -benchmem -run NONE ./internal/comm/... ./internal/mfree/...
	$(GO) run ./cmd/cgbench -exp E19 -quick -json BENCH_E19_quick.json
	$(GO) run ./cmd/cgbench -exp E20 -quick -json BENCH_E20_quick.json
	$(GO) run ./cmd/cgbench -exp E21 -quick -json BENCH_E21_quick.json
	$(GO) run ./cmd/cgbench -exp E22 -quick -json BENCH_E22_quick.json
	$(GO) run ./cmd/cgbench -exp E23 -quick -json BENCH_E23_quick.json
	$(GO) run ./cmd/cgbench -exp E24 -quick -json BENCH_E24_quick.json
	$(GO) run ./cmd/cgbench -exp E25 -quick -json BENCH_E25_quick.json
	$(GO) run ./cmd/cgbench -exp E26 -quick -json BENCH_E26_quick.json

# End-to-end service check: start hpfserve on a loopback port, submit a
# job to it over HTTP, assert convergence. Part of `make check`: it
# exercises the scheduler's one dispatch over real HTTP.
serve-smoke:
	$(GO) run ./cmd/hpfserve -smoke

# End-to-end cluster check: in-process router + two shards, repeat
# traffic through the router, same shard both times, plan-registry hit
# on the second solve, bit-identical answers. Part of `make check`.
cluster-smoke:
	$(GO) run ./cmd/hpfserve -cluster-smoke

# Small-size smoke run of every experiment.
quick:
	$(GO) run ./cmd/cgbench -quick
