package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hpfcg/internal/sparse"
)

// run runs the command (this test binary, re-entered as main through
// the named test) with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, test, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "HPFRUN_ARGS="+args)
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v", args, err)
	}
	return string(out), errBuf.String(), code
}

// reenter runs main with the arguments the parent test passed, when
// this process is that re-entry.
func reenter() {
	if args := os.Getenv("HPFRUN_ARGS"); args != "" {
		os.Args = append([]string{"hpfrun"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
}

// TestRefusesOutOfRangeVariantFlags runs the command (this test binary,
// re-entered as main) and wants every -variant the grammar does not
// take exactly refused with exit 1 and one stderr line naming it, not a
// solve that runs some other variant: a negative checkpoint interval or
// restart budget, an s-step factor outside [2,16] (s = 1 is plain), an
// unknown kind, or trailing junk. A variant the problem's backend does
// not run is refused by the legality table. A -problem the grammar
// does not take exactly is refused naming the argument, and a flag the
// solve would not read is refused too: -problem with -file, a layout
// (-demo) or a directive file with a stencil problem. A negative -tol
// or -maxiter is refused before the machine runs, not a solve that
// stops at once or runs to the cap and reports "not converged".
func TestRefusesOutOfRangeVariantFlags(t *testing.T) {
	reenter()
	const crash = "-np 4 -demo csr -fault crash:rank=2@t=0.5ms -variant "
	for args, want := range map[string]string{
		crash + "resilient:ckpt=-3":                     `variant "resilient:ckpt=-3": field ckpt_interval: negative bound -3`,
		crash + "resilient:ckpt=5,restarts=-2":          `variant "resilient:ckpt=5,restarts=-2": field max_restarts: negative bound -2`,
		"-demo csr -variant sstep:-5":                   `variant "sstep:-5": field sstep: -5 outside [2,16]`,
		"-demo csr -variant sstep:99":                   `variant "sstep:99": field sstep: 99 outside [2,16]`,
		"-demo csr -variant sstep:1":                    `variant "sstep:1": s = 1 is plain CG`,
		"-demo csr -variant gmres":                      `variant "gmres": want plain`,
		"-demo csr -variant sstep:4junk":                `variant "sstep:4junk": want plain`,
		"-demo csr -variant pipelined,sstep:4":          `variant "pipelined,sstep:4": want plain`,
		"-demo csr -variant resilient:ckpt=5:x":         `variant "resilient:ckpt=5:x": want plain`,
		"-demo csc-merge -variant sstep:4":              "field sstep: 4 needs a CSR layout, got csc",
		"-problem hpcg:4x4x4 -variant pipelined":        "field pipelined: does not apply to hpcg jobs",
		"-problem hpcg:8x8x8 -variant auto":             "field sstep: auto does not apply to hpcg jobs",
		"-demo csr -variant sstep:auto":                 `variant "sstep:auto": want plain`,
		"-problem stencil:5pt:32x24 -variant resilient": "field resilient: checkpoint/restart needs an assembled matrix",
		"-problem stencil:5pt:32x24 -variant bicg":      "field method: bicg needs an assembled matrix, not a stencil job",
		"-problem hpcg:4x4x4 -variant bicg":             "field method: bicg needs an assembled matrix, not a hpcg job",

		"-problem stencil:5pt:32x24junk":                    `problem "stencil:5pt:32x24junk"`,
		"-problem stencil:27pt:4x4x4x4":                     `problem "stencil:27pt:4x4x4x4"`,
		"-problem hpcg:4x4x4junk":                           `problem "hpcg:4x4x4junk"`,
		"-problem hpcg:4x4x4x9":                             `problem "hpcg:4x4x4x9"`,
		"-problem hpcg:0x4x4":                               "field mg.nx: 0 outside [1, 256]",
		"-problem hpcg:4x4x4 -demo csc-merge":               "field layout: does not apply to hpcg problems",
		"-problem stencil:5pt:32x24 -demo csr":              "field layout: does not apply to stencil problems",
		"-problem stencil:5pt:32x24 -file m.mtx":            "-problem does not apply with -file",
		"-problem stencil:5pt:32x24 figure2.hpf":            "a stencil problem is never assembled",
		"-problem laplace2d:16:16 -demo csr nosuchfile.hpf": "-demo does not apply with a directive file",
		"-problem laplace2d:16:16 a.hpf b.hpf":              "one directive file at most, got 2 arguments",

		"-problem laplace1d:16 -np 2 -tol -1":     "negative tolerance",
		"-problem laplace1d:16 -np 2 -maxiter -5": "negative iteration cap",
	} {
		out, stderr, code := run(t, "TestRefusesOutOfRangeVariantFlags", args)
		if code != 1 {
			t.Errorf("%s: exit status %d, want 1", args, code)
		}
		if len(out) != 0 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, want) {
			t.Errorf("%s: stdout %q stderr %q, want only a stderr line with %q", args, out, stderr, want)
		}
	}
}

// TestHistoryUnderIterationCap solves a Matrix Market file under an
// iteration cap too small to converge: the solve stops at the cap, exits
// 2, and -history prints one CSV row per iteration after the summary.
func TestHistoryUnderIterationCap(t *testing.T) {
	reenter()
	path := filepath.Join(t.TempDir(), "laplace1d4.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarket(f, sparse.Laplace1D(4)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	args := "-np 2 -file " + path + " -maxiter 2 -history"
	out, stderr, code := run(t, "TestHistoryUnderIterationCap", args)
	if code != 2 || stderr != "" {
		t.Fatalf("%s: exit status %d stderr %q, want 2 and no stderr", args, code, stderr)
	}
	if !strings.Contains(out, " iters=2 ") {
		t.Errorf("%s: stdout %q, want iters=2", args, out)
	}
	_, hist, ok := strings.Cut(out, "iteration,relres\n")
	if rows := strings.Split(strings.TrimSuffix(hist, "\n"), "\n"); !ok || len(rows) != 2 ||
		!strings.HasPrefix(rows[0], "1,") || !strings.HasPrefix(rows[1], "2,") {
		t.Errorf("%s: stdout %q, want an iteration,relres header and exactly two rows", args, out)
	}
}

// TestReportsResolvedVariant: the sstep: and overlap: lines report the
// variant that ran, not the one requested. Auto at np 8 resolves to
// pipelined, so the overlap line names the request and no sstep line
// prints; at np 1 it resolves to plain, reported as s=1; a fixed factor
// reports itself. A stencil problem resolves the same way: pipelined
// at np 4 on a 48×48 grid, plain at np 1.
func TestReportsResolvedVariant(t *testing.T) {
	reenter()
	for args, want := range map[string]struct{ line, strategy string }{
		"-np 8 -problem laplace2d:32:32 -variant auto":   {"overlap:  reductions=118 hidden=", "/ pipelined"},
		"-np 1 -problem laplace2d:32:32 -variant auto":   {"sstep:    s=1 (requested auto) guard_trips=0", "/ local(ghost)"},
		"-np 4 -problem banded:256:4 -variant sstep:4":   {"sstep:    s=4 (requested sstep:4) guard_trips=", "/ sstep:4"},
		"-np 4 -problem stencil:5pt:48x48 -variant auto": {"overlap:  reductions=", "/ pipelined"},
		"-np 1 -problem stencil:5pt:48x48 -variant auto": {"sstep:    s=1 (requested auto) guard_trips=0", "/ mfree(geometric-halo)"},
	} {
		out, stderr, code := run(t, "TestReportsResolvedVariant", args)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit status %d stderr %q, want 0 and no stderr", args, code, stderr)
		}
		first, _, _ := strings.Cut(out, "\n")
		if !strings.HasPrefix(first, want.line) || !strings.Contains(out, "strategy: ") ||
			!strings.Contains(out, want.strategy+"\n") {
			t.Errorf("%s: stdout %q, want first line %q and a strategy ending %q", args, out, want.line, want.strategy)
		}
		if pipelined := want.strategy == "/ pipelined"; pipelined != strings.HasSuffix(first, " (requested auto)") ||
			pipelined == strings.Contains("\n"+out, "\nsstep:") {
			t.Errorf("%s: stdout %q, want the request on the overlap line alone", args, out)
		}
	}
}

// TestAutoReportsFrontier: an auto solve prints, as its second line,
// why it chose: every row of the cost model's frontier with its price
// in modeled s/it, the variant that ran marked with * — pipelined of
// plain, s-step 2, 4, 8 and pipelined on laplace2d:32:32 at np 8, and
// plain of a stencil's two rows at np 1. A fixed variant, and auto on a
// layout the cost model does not price (csc-merge, where auto is
// plain), print no frontier line.
func TestAutoReportsFrontier(t *testing.T) {
	reenter()
	for args, want := range map[string]string{
		"-np 8 -problem laplace2d:32:32 -variant auto":                 "frontier: plain=0.00016528 sstep:2=0.000112135 sstep:4=0.000120693 sstep:8=0.000170271 pipelined=8.33e-05* s/it",
		"-np 1 -problem stencil:5pt:48x48 -variant auto":               "frontier: plain=0.00045696* pipelined=0.000604841 s/it",
		"-np 8 -problem laplace2d:32:32 -variant pipelined":            "",
		"-np 4 -problem laplace2d:32:32 -demo csc-merge -variant auto": "",
	} {
		out, stderr, code := run(t, "TestAutoReportsFrontier", args)
		if code != 0 || stderr != "" {
			t.Fatalf("%s: exit status %d stderr %q, want 0 and no stderr", args, code, stderr)
		}
		lines := strings.Split(out, "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: stdout %q, want at least two lines", args, out)
		}
		if want == "" {
			if strings.Contains(out, "frontier:") {
				t.Errorf("%s: stdout %q, want no frontier line", args, out)
			}
		} else if lines[1] != want {
			t.Errorf("%s: second line %q, want %q", args, lines[1], want)
		}
	}
}

// TestDirectivePrograms: a -demo layout runs the same matrix path as a
// directive file, so its bound plan prints too — csc-merge's ITERATION
// line among it, the solve unchanged by the check (38 iterations,
// 0.00467127 model-s on banded:250:4 at np 4). A file whose ON
// PROCESSOR map is not the executor's exits 1 with one stderr line
// naming the directive's line, and nothing on stdout.
func TestDirectivePrograms(t *testing.T) {
	reenter()
	args := "-np 4 -problem banded:250:4 -demo csc-merge"
	out, stderr, code := run(t, "TestDirectivePrograms", args)
	if code != 0 || stderr != "" {
		t.Fatalf("%s: exit status %d stderr %q, want 0 and no stderr", args, code, stderr)
	}
	for _, want := range []string{"\nplan:\nprocessors: 4 (PROCS)\n", "\niteration j ON PROCESSOR(", " iters=38 ", " time=0.00467127s "} {
		if !strings.Contains(out, want) {
			t.Errorf("%s: stdout %q, want %q", args, out, want)
		}
	}

	path := filepath.Join(t.TempDir(), "one.hpf")
	src := "!HPF$ PROCESSORS :: PROCS(NP)\n!HPF$ DISTRIBUTE p(BLOCK)\n!HPF$ SPARSE_MATRIX (CSC) :: smA(colptr, rowidx, a)\n" +
		"!EXT$ ITERATION j ON PROCESSOR(0), PRIVATE(q(n)) WITH MERGE(+)\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	args = "-np 4 -problem banded:250:4 " + path
	out, stderr, code = run(t, "TestDirectivePrograms", args)
	if want := "hpfrun: hpf: line 4: ON PROCESSOR(0) maps j = 62 to processor 0"; code != 1 || out != "" ||
		strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, want) {
		t.Errorf("%s: exit status %d stdout %q stderr %q, want 1 and one stderr line starting %q", args, code, out, stderr, want)
	}
}
