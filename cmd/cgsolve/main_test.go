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

func TestLoadMatrixFromGenerator(t *testing.T) {
	A, err := loadMatrix("", "laplace1d:12")
	if err != nil {
		t.Fatal(err)
	}
	if A.NRows != 12 {
		t.Errorf("n = %d", A.NRows)
	}
	if _, err := loadMatrix("", "bogus:1"); err == nil {
		t.Error("unknown generator accepted")
	}
}

func TestLoadMatrixFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixMarket(f, sparse.Laplace1D(7)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	A, err := loadMatrix(path, "ignored")
	if err != nil {
		t.Fatal(err)
	}
	if A.NRows != 7 || A.NNZ() != 19 {
		t.Errorf("loaded %dx nnz %d", A.NRows, A.NNZ())
	}
	if _, err := loadMatrix(filepath.Join(t.TempDir(), "missing.mtx"), ""); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRefusesNegativeBounds runs the command (this test binary,
// re-entered as main) and wants a negative -tol or -maxiter refused
// with exit 1 and one stderr line naming it, not a solve that runs to
// the cap or stops at once and reports "not converged".
func TestRefusesNegativeBounds(t *testing.T) {
	if args := os.Getenv("CGSOLVE_ARGS"); args != "" {
		os.Args = append([]string{"cgsolve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for args, want := range map[string]string{
		"-matrix laplace1d:16 -np 2 -tol -1":     "negative tolerance",
		"-matrix laplace1d:16 -np 2 -maxiter -5": "negative iteration cap",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesNegativeBounds$")
		cmd.Env = append(os.Environ(), "CGSOLVE_ARGS="+args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit status 1", args, err)
		}
		if len(out) != 0 || !strings.Contains(stderr.String(), want) {
			t.Errorf("%s: stdout %q stderr %q, want only a stderr line with %q", args, out, stderr.String(), want)
		}
	}
}
