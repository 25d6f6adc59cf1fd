package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The surface ledger is rule 3 for what users see: every HTTP route,
// every command-line flag and positional argument of cmd/* and
// examples/* (benchmark/'s CLI is fixed by BENCHMARK.json), and every
// JSON field of the service's job and result types is exercised by
// something outside the tests — a `make smoke` line, a benchmark
// workload, an experiment or an example — or it is deleted.
//
// A ledger key is "dir METHOD /path" for a route, "dir -name" for a flag,
// "dir arg N" for flag.Arg(N) and "dir.Type.field" for a JSON field. Its
// value is "file: text", a non-test file outside the tests that holds
// text (for the Makefile, its smoke recipe), or "deployment: reason" for
// the addresses, names and long-running server modes a deployment sets
// and no self-check can run.

// surfaceTypes are the JSON types whose fields are surface.
var surfaceTypes = []string{
	"internal/serve.JobSpec", "internal/serve.MGSpec", "internal/serve.StencilSpec",
	"internal/serve.JobResult", "internal/serve.JobView",
}

// deployable are the surface entries a deployment: reason may cover.
var deployable = map[string]bool{
	"cmd/hpfserve -addr": true, "cmd/hpfserve -join": true, "cmd/hpfserve -name": true,
	"cmd/hpfserve -advertise": true, "cmd/hpfserve -cluster-router": true,
}

const (
	smokeGo   = "cmd/hpfserve/smoke.go: "
	clusterGo = "cmd/hpfserve/cluster.go: "
	mgBlock   = smokeGo + `"mg":{"nx":4,"ny":4,"nz":4,"levels":2,"smooths":2}`
	stBlock   = smokeGo + `"stencil":{"stencil":"27pt","nx":6,"ny":6,"nz":8,"center":30,"off":-1}`
)

// ledger names what exercises each surface entry.
var ledger = map[string]string{
	"internal/serve POST /jobs":                 smokeGo + `post(base+"/jobs"`,
	"internal/serve GET /jobs/{id}":             smokeGo + `wait(base, id)`,
	"internal/serve GET /jobs/{id}/trace":       smokeGo + `fetchTrace(base, id)`,
	"internal/serve GET /metrics":               smokeGo + `get(base+"/metrics"`,
	"internal/serve GET /healthz":               smokeGo + `probe(base, http.StatusOK, http.StatusServiceUnavailable)`,
	"internal/serve GET /readyz":                smokeGo + `probe(base, http.StatusOK, http.StatusServiceUnavailable)`,
	"internal/cluster POST /jobs":               clusterGo + `submit(routerURL, spec)`,
	"internal/cluster GET /jobs/{id}":           clusterGo + `wait(routerURL, id)`,
	"internal/cluster GET /jobs/{id}/trace":     clusterGo + `fetchTrace(routerURL, id)`,
	"internal/cluster GET /metrics":             clusterGo + `get(routerURL+"/metrics"`,
	"internal/cluster GET /healthz":             clusterGo + `probe(routerURL, http.StatusOK, http.StatusOK)`,
	"internal/cluster GET /readyz":              clusterGo + `probe(routerURL, http.StatusOK, http.StatusServiceUnavailable)`,
	"internal/cluster GET /cluster/nodes":       clusterGo + `get(routerURL+"/cluster/nodes"`,
	"internal/cluster POST /cluster/register":   `benchmark/serve.go: "/cluster/register"`,
	"internal/cluster POST /cluster/heartbeat":  clusterGo + `n.LastBeat.After(t)`,
	"internal/cluster POST /cluster/deregister": clusterGo + `after the shards left the router lists`,

	"cmd/cgbench -exp":      "Makefile: cmd/cgbench -quick -exp E1",
	"cmd/cgbench -quick":    "Makefile: cmd/cgbench -quick",
	"cmd/cgbench -topology": "Makefile: cmd/cgbench -quick -exp E1 -topology ring",
	"cmd/cgbench -seed":     "Makefile: cmd/cgbench -quick -exp E1 -topology ring -seed 7",
	"cmd/cgbench -fault":    `Makefile: cmd/cgbench -quick -exp E2 -fault "straggle:rank=1,x=4"`,

	"cmd/cgsolve -matrix":     "Makefile: cmd/cgsolve -matrix laplace2d:64:64",
	"cmd/cgsolve -file":       "Makefile: cmd/cgsolve -file $(SMOKE_DIR)/laplace1d4.mtx",
	"cmd/cgsolve -method":     "Makefile: -method bicgstab",
	"cmd/cgsolve -layout":     "Makefile: -layout csc-merge",
	"cmd/cgsolve -np":         "Makefile: cmd/cgsolve -matrix laplace2d:64:64 -np 8",
	"cmd/cgsolve -topology":   "Makefile: laplace1d4.mtx -np 2 -topology ring",
	"cmd/cgsolve -tol":        "Makefile: -topology ring -tol 1e-8 -maxiter 50",
	"cmd/cgsolve -maxiter":    "Makefile: -maxiter 50",
	"cmd/cgsolve -commmatrix": "Makefile: -maxiter 50 -commmatrix",
	"cmd/cgsolve -history":    "Makefile: -maxiter 50 -commmatrix -history",
	"cmd/cgsolve -q":          "Makefile: -np 8 -q",

	"cmd/hpfdump -np":   "Makefile: cmd/hpfdump -np 2",
	"cmd/hpfdump -n":    "Makefile: cmd/hpfdump -np 2 -n 100",
	"cmd/hpfdump -nz":   "Makefile: cmd/hpfdump -np 2 -n 100 -nz 500",
	"cmd/hpfdump -size": "Makefile: -size p=100 $(SMOKE_DIR)/csr.hpf",
	"cmd/hpfdump -demo": "Makefile: cmd/hpfdump -demo",
	"cmd/hpfdump arg 0": "Makefile: -size p=100 $(SMOKE_DIR)/csr.hpf",

	"cmd/hpfrun -np":         "Makefile: cmd/hpfrun -np 4",
	"cmd/hpfrun -problem":    "Makefile: cmd/hpfrun -np 4 -problem banded:256:4",
	"cmd/hpfrun -file":       "Makefile: cmd/hpfrun -np 2 -file $(SMOKE_DIR)/laplace1d4.mtx",
	"cmd/hpfrun -topology":   "Makefile: -demo csr -topology ring",
	"cmd/hpfrun -tol":        "Makefile: -demo csr -topology ring -tol 1e-8",
	"cmd/hpfrun -demo":       "Makefile: cmd/hpfrun -np 4 -demo csr",
	"cmd/hpfrun -commmatrix": "Makefile: -demo csr -topology ring -tol 1e-8 -commmatrix",
	"cmd/hpfrun -timeout":    "Makefile: cmd/hpfrun -problem hpcg:6x6x6 -timeout 30s",
	"cmd/hpfrun -fault":      `Makefile: -fault "crash:rank=2@t=0.5ms"`,
	"cmd/hpfrun -variant":    "Makefile: -variant resilient:ckpt=5,restarts=2",
	"cmd/hpfrun arg 0":       "Makefile: cmd/hpfrun -np 4 -problem banded:256:4 $(SMOKE_DIR)/csr.hpf",

	"cmd/hpfserve -addr":           "deployment: the listen address of a long-running shard or router",
	"cmd/hpfserve -workers":        "Makefile: cmd/hpfserve -smoke -workers 1",
	"cmd/hpfserve -queue":          "Makefile: -workers 1 -queue 8",
	"cmd/hpfserve -batch":          "Makefile: -queue 8 -batch 2",
	"cmd/hpfserve -maxnp":          "Makefile: -batch 2 -maxnp 8",
	"cmd/hpfserve -smoke":          "Makefile: cmd/hpfserve -smoke",
	"cmd/hpfserve -plan-cache-mb":  "Makefile: -maxnp 8 -plan-cache-mb 16",
	"cmd/hpfserve -cluster-router": "deployment: the long-running router tier; -cluster-smoke runs the same router in process",
	"cmd/hpfserve -join":           "deployment: the router URL a long-running shard joins",
	"cmd/hpfserve -name":           "deployment: a shard's cluster-unique name",
	"cmd/hpfserve -advertise":      "deployment: the URL other hosts reach a shard at",
	"cmd/hpfserve -cluster-smoke":  "Makefile: cmd/hpfserve -cluster-smoke",

	"cmd/hpftrace -exp":        "Makefile: cmd/hpftrace -exp E2",
	"cmd/hpftrace -quick":      "Makefile: cmd/hpftrace -exp E2 -quick",
	"cmd/hpftrace -topology":   "Makefile: -o '' -topology ring",
	"cmd/hpftrace -seed":       "Makefile: -o '' -topology ring -seed 7",
	"cmd/hpftrace -o":          "Makefile: cmd/hpftrace -exp E2 -quick -o ''",
	"cmd/hpftrace -run":        "Makefile: -seed 7 -run 0",
	"cmd/hpftrace -width":      "Makefile: -run 0 -width 60",
	"cmd/hpftrace -notimeline": "Makefile: -notables -notimeline",
	"cmd/hpftrace -nomatrix":   "Makefile: -notimeline -nomatrix",
	"cmd/hpftrace -notables":   "Makefile: -o '' -notables",
	"cmd/hpftrace -fault":      `Makefile: -width 60 -fault "straggle:rank=1,x=4"`,

	"examples/heat -backend":      "Makefile: examples/heat -backend mfree",
	"examples/laplace2d -backend": "Makefile: examples/laplace2d -backend assembled",

	"internal/serve.JobSpec.matrix":        smokeGo + `"matrix":"laplace2d:16:16"`,
	"internal/serve.JobSpec.matrix_market": "benchmark/serve.go: serve.JobSpec{MatrixMarket:",
	"internal/serve.JobSpec.layout":        smokeGo + `"layout":"csr"`,
	"internal/serve.JobSpec.method":        smokeGo + `"method":"hpcg"`,
	"internal/serve.JobSpec.mg":            mgBlock,
	"internal/serve.JobSpec.stencil":       stBlock,
	"internal/serve.JobSpec.sstep":         smokeGo + `"sstep":2`,
	"internal/serve.JobSpec.pipelined":     smokeGo + `"pipelined":true`,
	"internal/serve.JobSpec.np":            smokeGo + `"np":4`,
	"internal/serve.JobSpec.topology":      smokeGo + `"topology":"ring"`,
	"internal/serve.JobSpec.tol":           smokeGo + `"tol":1e-8`,
	"internal/serve.JobSpec.maxiter":       smokeGo + `"maxiter":400`,
	"internal/serve.JobSpec.seed":          smokeGo + `"seed":7`,
	"internal/serve.JobSpec.rhs":           smokeGo + `"rhs":[1,0,0,1]`,
	"internal/serve.JobSpec.fault":         smokeGo + `"fault":"crash:rank=2@t=0.5ms"`,
	"internal/serve.JobSpec.resilient":     smokeGo + `"resilient":true`,
	"internal/serve.JobSpec.ckpt_interval": smokeGo + `"ckpt_interval":5`,
	"internal/serve.JobSpec.max_restarts":  smokeGo + `"max_restarts":3`,
	"internal/serve.JobSpec.timeout_ms":    smokeGo + `"timeout_ms":30000`,
	"internal/serve.JobSpec.trace":         smokeGo + `"trace":true`,

	"internal/serve.MGSpec.nx":      mgBlock,
	"internal/serve.MGSpec.ny":      mgBlock,
	"internal/serve.MGSpec.nz":      mgBlock,
	"internal/serve.MGSpec.levels":  mgBlock,
	"internal/serve.MGSpec.smooths": mgBlock,

	"internal/serve.StencilSpec.stencil": stBlock,
	"internal/serve.StencilSpec.nx":      stBlock,
	"internal/serve.StencilSpec.ny":      stBlock,
	"internal/serve.StencilSpec.nz":      stBlock,
	"internal/serve.StencilSpec.center":  stBlock,
	"internal/serve.StencilSpec.off":     stBlock,

	"internal/serve.JobResult.x":                smokeGo + `v.Result.X`,
	"internal/serve.JobResult.converged":        smokeGo + `!r.Converged`,
	"internal/serve.JobResult.iterations":       smokeGo + `r.Iterations == 0`,
	"internal/serve.JobResult.residual":         smokeGo + `r.Residual > 1e-8`,
	"internal/serve.JobResult.strategy":         smokeGo + `r.Strategy == ""`,
	"internal/serve.JobResult.model_time":       smokeGo + `r.ModelTime <= 0`,
	"internal/serve.JobResult.solve_model_time": smokeGo + `r.SolveModelTime <= 0`,
	"internal/serve.JobResult.setup_model_time": smokeGo + `v.Result.SetupModelTime == 0`,
	"internal/serve.JobResult.comm_time":        smokeGo + `r.CommTime <= 0`,
	"internal/serve.JobResult.batch_size":       smokeGo + `r.BatchSize != 1`,
	"internal/serve.JobResult.plan_cache_hit":   smokeGo + `v.Result.PlanCacheHit`,
	"internal/serve.JobResult.sstep":            smokeGo + `v.Result.SStep == 2`,
	"internal/serve.JobResult.replacements":     smokeGo + `v.Result.Replacements == 0`,
	"internal/serve.JobResult.pipelined":        smokeGo + `v.Result.Pipelined`,
	"internal/serve.JobResult.reductions":       smokeGo + `v.Result.Reductions == v.Result.Iterations+3`,
	"internal/serve.JobResult.attempts":         smokeGo + `v.Result.Attempts == 2`,
	"internal/serve.JobResult.failures":         smokeGo + `v.Result.Failures == 1`,
	"internal/serve.JobResult.levels":           smokeGo + `v.Result.Levels == 2`,
	"internal/serve.JobResult.model_gflops":     smokeGo + `v.Result.ModelGFlops > 0`,

	"internal/serve.JobView.id":            smokeGo + `v.ID != id`,
	"internal/serve.JobView.state":         smokeGo + `v.State != state`,
	"internal/serve.JobView.error":         smokeGo + `strings.Contains(v.Error, "processor 1 failed")`,
	"internal/serve.JobView.result":        smokeGo + `r := v.Result`,
	"internal/serve.JobView.has_trace":     smokeGo + `v.HasTrace`,
	"internal/serve.JobView.submitted":     smokeGo + `v.Submitted.IsZero()`,
	"internal/serve.JobView.started":       smokeGo + `v.Started.Before(v.Submitted)`,
	"internal/serve.JobView.finished":      smokeGo + `v.Finished.Before(v.Started)`,
	"internal/serve.JobView.queue_seconds": smokeGo + `v.QueueSeconds < 0`,
	"internal/serve.JobView.run_seconds":   smokeGo + `v.RunSeconds <= 0`,
}

// exercisers are the places a ledger entry may name, besides the
// Makefile's smoke recipe.
var exercisers = []string{"cmd/", "examples/", "internal/bench/", "benchmark/"}

// TestSurfaceLedger holds the module's external surface to the ledger.
func TestSurfaceLedger(t *testing.T) {
	got, err := lintSurface("../..", surfaceTypes, ledger, deployable)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 {
		t.Errorf("%d problem(s):\n%s", len(got), strings.Join(got, "\n"))
	}
}

// TestSurfaceLedgerFixture runs the ledger check on the testdata/surface
// module: its complete ledger passes, and each of the four ways a
// ledger goes wrong is reported.
func TestSurfaceLedgerFixture(t *testing.T) {
	types := []string{"internal/srv.Spec"}
	deploy := map[string]bool{"cmd/app -addr": true}
	good := map[string]string{
		"internal/srv GET /ping":  "cmd/app/main.go: /ping",
		"internal/srv.Spec.n":     "Makefile: app -n 3",
		"internal/srv.Spec.label": "cmd/app/main.go: Label:",
		"cmd/app -n":              "Makefile: app -n 3",
		"cmd/app -fast":           "Makefile: app -n 3 -fast",
		"cmd/app -addr":           "deployment: the listen address",
		"cmd/app arg 0":           "Makefile: app -n 3 -fast input.txt",
	}
	for _, c := range []struct {
		name string
		edit func(l map[string]string)
		want []string
	}{
		{"complete", func(map[string]string) {}, nil},
		{"unledgered flag", func(l map[string]string) { delete(l, "cmd/app -fast") },
			[]string{"cmd/app -fast: not in the ledger; exercise it outside the tests and name that, or delete it"}},
		{"smoke string removed", func(l map[string]string) { l["cmd/app -fast"] = "Makefile: app -slow" },
			[]string{`ledger entry cmd/app -fast: "app -slow" does not occur in Makefile's smoke recipe`}},
		{"stale entry", func(l map[string]string) { l["cmd/app -gone"] = "Makefile: app" },
			[]string{"ledger entry cmd/app -gone: no such route, flag, argument or field"}},
		{"deployment on a non-deployment flag", func(l map[string]string) { l["cmd/app -fast"] = "deployment: tuning" },
			[]string{`ledger entry cmd/app -fast: a "deployment:" reason covers only addresses, names and long-running server modes`}},
		{"test file named", func(l map[string]string) { l["cmd/app -fast"] = "cmd/app/main_test.go: -fast" },
			[]string{"ledger entry cmd/app -fast: cmd/app/main_test.go is not the Makefile's smoke recipe or a non-test file under cmd/ examples/ internal/bench/ benchmark/"}},
	} {
		l := map[string]string{}
		for k, v := range good {
			l[k] = v
		}
		c.edit(l)
		got, err := lintSurface("testdata/surface", types, l, deploy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: problems:\n%s\nwant:\n%s", c.name, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}

// lintSurface returns every surface entry under root the ledger lacks,
// and every ledger entry that is stale, malformed, names a file outside
// the exercisers, names text its file does not hold, or gives a
// deployment reason for an entry deploy does not list.
func lintSurface(root string, types []string, ledger map[string]string, deploy map[string]bool) ([]string, error) {
	surf, err := surface(root, types)
	if err != nil {
		return nil, err
	}
	smoke, err := smokeRecipe(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, err
	}
	var problems []string
	for key := range surf {
		if _, ok := ledger[key]; !ok {
			problems = append(problems, key+": not in the ledger; exercise it outside the tests and name that, or delete it")
		}
	}
	for key, use := range ledger {
		bad := func(format string, args ...any) {
			problems = append(problems, "ledger entry "+key+": "+fmt.Sprintf(format, args...))
		}
		if !surf[key] {
			bad("no such route, flag, argument or field")
			continue
		}
		if strings.HasPrefix(use, "deployment:") {
			if !deploy[key] {
				bad(`a "deployment:" reason covers only addresses, names and long-running server modes`)
			}
			continue
		}
		file, text, ok := strings.Cut(use, ": ")
		if !ok {
			bad(`%q is neither "file: text" nor "deployment: reason"`, use)
			continue
		}
		body, where := smoke, "Makefile's smoke recipe"
		if file != "Makefile" {
			if !exerciser(file) {
				bad("%s is not the Makefile's smoke recipe or a non-test file under %s", file, strings.Join(exercisers, " "))
				continue
			}
			src, err := os.ReadFile(filepath.Join(root, file))
			if err != nil {
				bad("%v", err)
				continue
			}
			body, where = string(src), file
		}
		if !strings.Contains(body, text) {
			bad("%q does not occur in %s", text, where)
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// exerciser reports whether a ledger entry may name file.
func exerciser(file string) bool {
	if strings.HasSuffix(file, "_test.go") {
		return false
	}
	for _, dir := range exercisers {
		if strings.HasPrefix(file, dir) {
			return true
		}
	}
	return false
}

// smokeRecipe returns the command lines of the Makefile's smoke target.
func smokeRecipe(makefile string) (string, error) {
	src, err := os.ReadFile(makefile)
	if err != nil {
		return "", err
	}
	var recipe strings.Builder
	in := false
	for _, line := range strings.Split(string(src), "\n") {
		switch {
		case strings.HasPrefix(line, "smoke:"):
			in = true
		case in && strings.HasPrefix(line, "\t"):
			recipe.WriteString(line + "\n")
		default:
			in = false
		}
	}
	return recipe.String(), nil
}

// surface lists the external surface of the module at root: the
// HandleFunc route patterns of every non-test file, the flags and
// flag.Arg positions of cmd/* and examples/*, and the JSON field names
// of types ("dir.Type").
func surface(root string, types []string) (map[string]bool, error) {
	jsonTypes := map[string]bool{}
	for _, t := range types {
		jsonTypes[t] = true
	}
	surf := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		cli := strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel.Sel.Name == "HandleFunc" {
					if s, ok := literal(n.Args, 0, token.STRING); ok {
						surf[dir+" "+s] = true
					}
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" || !cli {
					return true
				}
				if sel.Sel.Name == "Arg" {
					if i, ok := literal(n.Args, 0, token.INT); ok {
						surf[dir+" arg "+i] = true
					}
				} else if name, ok := literal(n.Args, flagNameArg(sel.Sel.Name), token.STRING); ok {
					surf[dir+" -"+name] = true
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !jsonTypes[dir+"."+n.Name.Name] {
					return true
				}
				for _, field := range st.Fields.List {
					if field.Tag == nil {
						continue
					}
					tag, _ := strconv.Unquote(field.Tag.Value)
					name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
					if name != "" && name != "-" {
						surf[dir+"."+n.Name.Name+"."+name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	return surf, err
}

// flagNameArg is the argument position of the flag name in a call of
// the flag package's definer fn: second for the Var forms.
func flagNameArg(fn string) int {
	if strings.HasSuffix(fn, "Var") {
		return 1
	}
	return 0
}

// literal returns args[i] as its value when it is a literal of kind.
func literal(args []ast.Expr, i int, kind token.Token) (string, bool) {
	if i >= len(args) {
		return "", false
	}
	lit, ok := args[i].(*ast.BasicLit)
	if !ok || lit.Kind != kind {
		return "", false
	}
	if kind != token.STRING {
		return lit.Value, true
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
