package bench

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"hpfcg/internal/fault"
	"hpfcg/internal/trace"
)

func quickCfg() Config {
	c := DefaultConfig()
	c.Quick = true
	return c
}

// claims is the claim ledger: every experiment names the paper section
// or figure it reproduces, or the guarantee it enforces, and the test
// that fails when that claim stops holding. A test is "TestX" in this
// package or "dir.TestX" for a test in module directory dir; "the
// runner" means the experiment returns an error when the claim fails,
// so the test that runs it fails.
var claims = map[string]struct{ claim, test string }{
	"E1":  {"Figure 2: CG's iteration count is NP-invariant and the modeled time speeds up", "TestE1Shape"},
	"E2":  {"Figure 3, Scenario 1: the broadcast costs §4's t_s·log NP + t_w·n·(NP-1)/NP", "TestE2MatchesFormula"},
	"E3":  {"Figure 4, Scenario 2: the serialized CSC loop does not scale, PRIVATE/MERGE does", "TestE4ExtensionWins"},
	"E4":  {"Figure 5, §5.1: the PRIVATE/MERGE(+) extension beats the serialized loop", "TestE4ExtensionWins"},
	"E5":  {"§2, §2.1: the per-iteration products, inner products and SAXPYs of each solver", "internal/seq.TestComputationalStructure"},
	"E6":  {"§2.1: BiCG's transpose product brings back the merge phase", "TestE6TransposePenalty"},
	"E7":  {"§5.2.1: ATOM:BLOCK never splits an atom", "internal/partition.TestElemDistNeverSplitsAtoms"},
	"E8":  {"§5.2.2: the balanced partitioner beats uniform atom blocks", "TestE8BalancedWins"},
	"E9":  {"§2: CG ends within the distinct-eigenvalue count; preconditioning cuts iterations", "TestE9Convergence"},
	"E10": {"§4: SAXPY scales as n/NP, DOT_PRODUCT adds a merge", "TestE10VectorOps"},
	"E11": {"§1: the NAS-CG kernel distributed reproduces the sequential zeta trajectory", "internal/nas.TestDistributedMatchesSequential"},
	"E12": {"§1: iterative vs direct; sparse CG and dense LU agree on every size (the runner)", "TestAllExperimentsRunQuick"},
	"E13": {"§4 extended: a checkerboard moves fewer bytes than striping", "TestE13CheckerboardBytes"},
	"E14": {"§5.1's inspector loops: the halo executor beats the broadcast, inspector included", "TestE14GhostWins"},
	"E15": {"HPF's portability premise: the best mat-vec execution flips with t_s", "TestE15WinnerFlips"},
	"E16": {"§5.2.2's irregular order: RCM shrinks a scrambled matrix's halo", "TestE16RCMShrinksHalo"},
	"E17": {"§4: the inner products are CG's only synchronisations; dot-free Chebyshev wins at high t_s", "TestE17ChebyshevWinsAtHighStartup"},
	"E18": {"§4: at fixed work per processor only the t_s·log NP merges grow", "TestE18WeakScaling"},
	"E19": {"Figure 2's three merges per iteration: fusion cuts the rounds and the modeled time", "TestE19FusionWins"},
	"E20": {"guarantee: checkpoint/restart is bit-identical when healthy and recovers from crashes", "TestE20ResilienceShape"},
	"E23": {"§4's t_s·log NP term: s-step CG merges 1/s times per iteration", "internal/core.TestCGSStepRoundsPerIteration"},
	"E24": {"guarantee: the V-cycle cuts CG's iterations (its modeled time only on the smallest bricks) and repeats bit for bit (the runner)", "TestAllExperimentsRunQuick"},
	"E25": {"guarantee: matrix-free CG is bit-identical to assembled with zero setup (the runner)", "TestAllExperimentsRunQuick"},
	"E26": {"§4's merge term: pipelined CG hides the allreduce, iterations+3 rounds (the runner)", "TestAllExperimentsRunQuick"},
}

// moduleTests returns every top-level test function of the module as
// "dir.TestX", dir relative to the module root.
func moduleTests(t *testing.T) map[string]bool {
	t.Helper()
	const root = "../.."
	fset := token.NewFileSet()
	tests := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				tests[filepath.ToSlash(dir)+"."+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tests
}

// Every registered experiment has a ledger entry, every entry a
// registered experiment, and every named test exists.
func TestClaimLedger(t *testing.T) {
	tests := moduleTests(t)
	for _, id := range IDs() {
		if _, ok := claims[id]; !ok {
			t.Errorf("%s: no claims entry", id)
		}
	}
	for id, c := range claims {
		if _, err := Get(id); err != nil {
			t.Errorf("claims entry %s: no such experiment", id)
		}
		name := c.test
		if !strings.Contains(name, ".") {
			name = "internal/bench." + name
		}
		if !tests[name] {
			t.Errorf("%s: test %s does not exist", id, c.test)
		}
	}
}

// The harness runs the modeled machine only: nothing internal/bench or
// cmd/cgbench imports, however indirectly, is the solver service or the
// cluster tier.
func TestHarnessIsModeledOnly(t *testing.T) {
	fset := token.NewFileSet()
	via := map[string]string{"internal/bench": "", "cmd/cgbench": ""}
	queue := []string{"internal/bench", "cmd/cgbench"}
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		if dir == "internal/serve" || dir == "internal/cluster" {
			chain := dir
			for d := via[dir]; d != ""; d = via[d] {
				chain = d + " -> " + chain
			}
			t.Errorf("the harness reaches %s: %s", dir, chain)
			continue
		}
		files, err := filepath.Glob(filepath.Join("../..", dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value) // the parser accepted the literal
				dep, local := strings.CutPrefix(path, "hpfcg/")
				if _, seen := via[dep]; local && !seen {
					via[dep] = dir
					queue = append(queue, dep)
				}
			}
		}
	}
}

func TestIDsOrderedAndComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != len(claims) {
		t.Fatalf("%d experiments registered, the claim ledger has %d", len(ids), len(claims))
	}
	if ids[0] != "E1" || ids[1] != "E2" || ids[len(ids)-1] != "E26" {
		t.Errorf("order wrong: %v", ids)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("E99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// Every experiment must run in quick mode and produce non-empty,
// rectangular tables with no stopwatch column: the experiments report
// modeled numbers only, wall numbers come only from benchmark/.
func TestAllExperimentsRunQuick(t *testing.T) {
	cfg := quickCfg()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			r, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			tables, err := r(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range tables {
				if len(tab.Rows) == 0 {
					t.Fatalf("table %q empty", tab.Title)
				}
				for _, h := range tab.Header {
					if strings.Contains(h, "wall") {
						t.Errorf("table %q: column %q is a wall-clock number", tab.Title, h)
					}
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Header) {
						t.Fatalf("table %q: row width %d != header %d", tab.Title, len(row), len(tab.Header))
					}
				}
			}
		})
	}
}

// machineFree lists the experiments that run no SPMD program and so
// build no machine: E5, E7, E9 and E12.
var machineFree = map[string]bool{"E5": true, "E7": true, "E9": true, "E12": true}

// Config.Tracer reaches every machine an experiment builds: each
// machine-building experiment deposits at least one recorder, so
// cmd/hpftrace can drill into any of them, and the exempt ones none.
func TestTracerReachesEveryMachine(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			cfg := quickCfg()
			cfg.Tracer = &trace.Tracer{}
			r, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r(cfg); err != nil {
				t.Fatal(err)
			}
			got := len(cfg.Tracer.Runs())
			if machineFree[id] && got != 0 {
				t.Errorf("exempt experiment traced %d runs", got)
			}
			if !machineFree[id] && got == 0 {
				t.Error("no traced machine runs")
			}
		})
	}
}

// An injected crash ends an experiment with an error (or, when no
// crashed rank exists or the crash instant is never reached, not at
// all), never with a panic: every run goes through RunContext.
func TestInjectedCrashIsAnError(t *testing.T) {
	plan, err := fault.Parse("crash:rank=1@t=0.1ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			inj, err := fault.NewInjector(plan)
			if err != nil {
				t.Fatal(err)
			}
			cfg := quickCfg()
			cfg.Injector = inj
			r, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if e := recover(); e != nil {
					t.Errorf("panicked: %v", e)
				}
			}()
			if _, err := r(cfg); err != nil && !strings.Contains(err.Error(), "processor 1 failed") {
				t.Errorf("error %q does not name the crashed processor", err)
			}
		})
	}
}

func TestRunAndRender(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAndRender(&buf, "E5", quickCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E5", "bicgstab", "matvec/it"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if err := RunAndRender(&buf, "E99", quickCfg()); err == nil {
		t.Error("unknown id accepted")
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// E1's headline shape: iteration counts identical across np, speedup > 1
// at the largest np.
func TestE1Shape(t *testing.T) {
	tables, err := E1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	tab := tables[0]
	iters := map[string]bool{}
	for _, row := range tab.Rows {
		iters[row[1]] = true
	}
	if len(iters) != 1 {
		t.Errorf("iteration count varies with np: %v", tab.Rows)
	}
	last := tab.Rows[len(tab.Rows)-1]
	if sp := parseF(t, last[5]); sp <= 1 {
		t.Errorf("no speedup at np=%s: %g", last[0], sp)
	}
}

// E2: measured communication within 2x of the analytic prediction.
func TestE2MatchesFormula(t *testing.T) {
	tables, err := E2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		ratio := parseF(t, row[3])
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("np=%s: measured/predicted = %g, outside [0.5, 2]", row[0], ratio)
		}
	}
}

// E3/E4: the private-merge execution must beat the serialized one for
// np > 1 and the serialized compute must not scale; the inspected merge,
// its inspector included, must move no more bytes than the dense one at
// any np.
func TestE4ExtensionWins(t *testing.T) {
	tables, err := E4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		np, _ := strconv.Atoi(row[0])
		speedup := parseF(t, row[1])
		if np > 1 && speedup <= 1 {
			t.Errorf("np=%d: extension speedup %g <= 1", np, speedup)
		}
	}
	e3, err := E3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range e3[0].Rows {
		if dense, inspected := parseF(t, row[4]), parseF(t, row[6]); inspected > dense {
			t.Errorf("np=%s: inspected merge moved %g bytes > dense merge %g", row[0], inspected, dense)
		}
	}
}

// E6: the transpose product must move at least as many bytes as the
// forward one (the merge phase re-appears) and cost a comparable
// modeled time — the paper's point is that the row-access optimisation
// cannot be kept for both products.
func TestE6TransposePenalty(t *testing.T) {
	tables, err := E6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		fwdBytes := parseF(t, row[4])
		bwdBytes := parseF(t, row[5])
		if bwdBytes < fwdBytes {
			t.Errorf("np=%s: ApplyT moved %g bytes < Apply %g", row[0], bwdBytes, fwdBytes)
		}
		if ratio := parseF(t, row[3]); ratio < 1 {
			t.Errorf("np=%s: ApplyT/Apply time ratio %g < 1 (merge phase missing)", row[0], ratio)
		}
	}
}

// E8: the optimal partitioner's imbalance must not exceed uniform's,
// and its modeled time must be the smallest.
func TestE8BalancedWins(t *testing.T) {
	tables, err := E8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	var uniImb, balImb, uniTime, balTime float64
	for _, row := range rows {
		switch row[0] {
		case "uniform_atom_block":
			uniImb, uniTime = parseF(t, row[1]), parseF(t, row[3])
		case "balanced_optimal":
			balImb, balTime = parseF(t, row[1]), parseF(t, row[3])
		}
	}
	if balImb > uniImb {
		t.Errorf("balanced imbalance %g > uniform %g", balImb, uniImb)
	}
	if balTime > uniTime {
		t.Errorf("balanced model time %g > uniform %g", balTime, uniTime)
	}
}

// E9: the distinct-eigenvalue bound column must be all true, and every
// preconditioner must beat plain CG.
func TestE9Convergence(t *testing.T) {
	tables, err := E9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[3] != "true" {
			t.Errorf("eigenvalue bound violated: %v", row)
		}
	}
	var plain int
	for _, row := range tables[1].Rows {
		iters, _ := strconv.Atoi(row[1])
		if row[0] == "none" {
			plain = iters
			continue
		}
		if iters >= plain {
			t.Errorf("%s: %d iterations >= plain %d", row[0], iters, plain)
		}
	}
}

// E13: the checkerboard must move fewer bytes than striping at every
// processor count (the bandwidth term drops from n to n/sqrt(NP)).
func TestE13CheckerboardBytes(t *testing.T) {
	tables, err := E13(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		striped := parseF(t, row[4])
		checker := parseF(t, row[5])
		if checker >= striped {
			t.Errorf("np=%s: checkerboard bytes %g >= striped %g", row[0], checker, striped)
		}
	}
}

// E14: the inspector-executor must beat the broadcast in both time and
// bytes on a banded matrix, even including the inspector cost.
func TestE14GhostWins(t *testing.T) {
	tables, err := E14(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if sp := parseF(t, row[3]); sp <= 1 {
			t.Errorf("np=%s: ghost speedup %g <= 1", row[0], sp)
		}
		bcB := parseF(t, row[4])
		ghB := parseF(t, row[5])
		if ghB >= bcB/10 {
			t.Errorf("np=%s: ghost bytes %g not far below broadcast %g", row[0], ghB, bcB)
		}
	}
}

// E10: dot must cost more than axpy (the merge phase) and both must
// shrink as np grows.
func TestE10VectorOps(t *testing.T) {
	tables, err := E10(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	for _, row := range rows {
		axpy, dot := parseF(t, row[1]), parseF(t, row[3])
		if row[0] != "1" && dot <= axpy {
			// np=1 has no merge phase; beyond that dot must pay it.
			t.Errorf("np=%s: dot %g <= axpy %g (missing merge cost)", row[0], dot, axpy)
		}
	}
	firstAxpy := parseF(t, rows[0][1])
	lastAxpy := parseF(t, rows[len(rows)-1][1])
	if lastAxpy >= firstAxpy {
		t.Errorf("axpy did not scale: %g -> %g", firstAxpy, lastAxpy)
	}
}

// E15: on a no-locality matrix the best execution must flip between
// low-startup (ghost wins) and high-startup (broadcast wins) machines.
func TestE15WinnerFlips(t *testing.T) {
	tables, err := E15(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("want 2 tables, got %d", len(tables))
	}
	// Banded at the lowest startup time: the halo must win.
	if got := tables[0].Rows[0][4]; got != "ghost" {
		t.Errorf("banded low-t_s best = %s, want ghost", got)
	}
	// Across the sweep the winner must not be constant (the portability
	// point): matrix structure and machine constants change the choice.
	seen := map[string]bool{}
	for _, tab := range tables {
		for _, row := range tab.Rows {
			seen[row[4]] = true
		}
	}
	if len(seen) < 2 {
		t.Errorf("winner never flips across matrices/machines: %v", seen)
	}
}

// E16: RCM must shrink the scrambled matrix's halo dramatically and
// bring the modeled time back toward the original banded layout.
func TestE16RCMShrinksHalo(t *testing.T) {
	tables, err := E16(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	get := func(name string, col int) float64 {
		for _, row := range rows {
			if row[0] == name {
				return parseF(t, row[col])
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	if get("scrambled", 2) < 4*get("original", 2) {
		t.Errorf("scramble did not blow up the halo: %g vs %g", get("scrambled", 2), get("original", 2))
	}
	if get("rcm(scrambled)", 2) > get("scrambled", 2)/4 {
		t.Errorf("RCM halo %g not far below scrambled %g", get("rcm(scrambled)", 2), get("scrambled", 2))
	}
	if get("rcm(scrambled)", 3) >= get("scrambled", 3) {
		t.Errorf("RCM time %g >= scrambled %g", get("rcm(scrambled)", 3), get("scrambled", 3))
	}
}

// E17: at large t_s the dot-free Chebyshev must beat CG in modeled
// time despite needing more iterations.
func TestE17ChebyshevWinsAtHighStartup(t *testing.T) {
	tables, err := E17(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	last := rows[len(rows)-1] // t_s = 1ms
	if ratio := parseF(t, last[5]); ratio >= 1 {
		t.Errorf("t_s=1ms: chebyshev/cg time ratio %g, want < 1", ratio)
	}
	// Chebyshev needs at least as many iterations as CG (optimal Krylov).
	cgIters, _ := strconv.Atoi(last[1])
	chIters, _ := strconv.Atoi(last[3])
	if chIters < cgIters {
		t.Errorf("chebyshev %d iterations < CG %d (CG is Krylov-optimal)", chIters, cgIters)
	}
}

// E18: weak-scaling efficiency must stay high (the halo mat-vec is
// NP-independent; only the log NP dot merges decay it).
func TestE18WeakScaling(t *testing.T) {
	tables, err := E18(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	last := rows[len(rows)-1]
	if eff := parseF(t, last[5]); eff < 0.3 || eff > 1.05 {
		t.Errorf("weak-scaling efficiency at np=%s is %g, outside (0.3, 1.05)", last[0], eff)
	}
}

// E19: the communication-avoidance ledger must show up in the harness —
// reduction rounds per iteration strictly decreasing from the unfused
// baseline through fused CG to the single-reduction variant, with the
// modeled time following.
func TestE19FusionWins(t *testing.T) {
	tables, err := E19(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("want 1 table, got %d", len(tables))
	}
	// Group the rows by (np, n) and compare the three variants.
	type key struct{ np, n string }
	rounds := map[key]map[string]float64{}
	model := map[key]map[string]float64{}
	for _, row := range tables[0].Rows {
		k := key{row[1], row[2]}
		if rounds[k] == nil {
			rounds[k] = map[string]float64{}
			model[k] = map[string]float64{}
		}
		rounds[k][row[0]] = parseF(t, row[4])
		model[k][row[0]] = parseF(t, row[5])
	}
	for k, r := range rounds {
		if !(r["single_1round"] < r["fused_2round"] && r["fused_2round"] < r["unfused_3round"]) {
			t.Errorf("np=%s n=%s: rounds/it not decreasing: %v", k.np, k.n, r)
		}
		if r["fused_2round"] != 2 {
			t.Errorf("np=%s n=%s: fused CG pays %g rounds/it, want exactly 2", k.np, k.n, r["fused_2round"])
		}
		m := model[k]
		if k.np != "1" && !(m["fused_2round"] < m["unfused_3round"]) {
			t.Errorf("np=%s n=%s: fused model time %g not below unfused %g", k.np, k.n, m["fused_2round"], m["unfused_3round"])
		}
	}
}

// E20: resilience must be free when healthy (bit-identical solutions,
// overhead only from checkpoint writes), and under injected crashes
// the checkpointed solves must recover — with some work lost — while
// still reproducing the fault-free answer (asserted inside the
// runner). Checkpointing must beat restart-from-scratch when failures
// actually strike.
func TestE20ResilienceShape(t *testing.T) {
	tables, err := E20(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("want 3 tables, got %d", len(tables))
	}
	for _, row := range tables[0].Rows {
		if row[8] != "true" {
			t.Errorf("healthy resilient solve not bit-identical: %v", row)
		}
		over := parseF(t, row[7])
		if over < 0 || over > 10 {
			t.Errorf("checkpoint overhead %g%% outside [0, 10]: %v", over, row)
		}
	}
	// Table 2: every recovery row completed; crashed rows lose work and
	// slow down, and mission time is never below the healthy makespan.
	sawCrash := false
	for _, row := range tables[1].Rows {
		crashes, _ := strconv.Atoi(row[3])
		slow := parseF(t, row[7])
		if crashes > 0 {
			sawCrash = true
			if slow <= 1 {
				t.Errorf("crashes=%d but slowdown %g <= 1: %v", crashes, slow, row)
			}
		}
		if slow < 0.99 {
			t.Errorf("mission faster than healthy makespan: %v", row)
		}
	}
	if !sawCrash {
		t.Error("no crashes delivered across the whole MTBF sweep (plan misconfigured?)")
	}
	// Table 3: with failures striking, some checkpointed interval must
	// beat interval=0 (restart from scratch).
	var scratch float64
	best := math.Inf(1)
	crashed := false
	for _, row := range tables[2].Rows {
		mission := parseF(t, row[4])
		if crashes, _ := strconv.Atoi(row[2]); crashes > 0 {
			crashed = true
		}
		if row[1] == "0" {
			scratch = mission
		} else if mission < best {
			best = mission
		}
	}
	if crashed && best >= scratch {
		t.Errorf("no checkpoint interval beats restart-from-scratch: best %g vs %g", best, scratch)
	}
}

// renderAll renders every experiment the way `cgbench` prints them.
func renderAll(t *testing.T, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, id := range IDs() {
		if err := RunAndRender(&buf, id, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// firstDiff describes the first line at which two renderings differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	title := ""
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if strings.HasPrefix(wl, "== ") {
			title = wl
		}
		if gl != wl {
			return fmt.Sprintf("line %d, under %q:\n  got:  %s\n  want: %s", i+1, title, gl, wl)
		}
	}
	return "no difference"
}

// The experiments' output is a pure function of (code, Config): two
// passes must render the same bytes.
func TestExperimentsAreDeterministic(t *testing.T) {
	cfg := quickCfg()
	a, b := renderAll(t, cfg), renderAll(t, cfg)
	if !bytes.Equal(a, b) {
		t.Errorf("two quick passes rendered different bytes; first difference at %s", firstDiff(b, a))
	}
}

// The full-size output of every experiment is committed: a change
// that moves a modeled number must regenerate the file (`make golden`)
// and name the moved tables in CHANGES.md.
func TestExperimentsMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := renderAll(t, DefaultConfig()); !bytes.Equal(got, want) {
		t.Errorf("experiment output differs from testdata/experiments.golden at %s\n"+
			"if the change is intended, run `make golden` and list the moved tables in CHANGES.md",
			firstDiff(got, want))
	}
}
