package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRefusesBadPoolSizes runs the command (this test binary, re-entered
// as main) and wants every pool size below 1 and every negative or
// overflowing plan-cache budget refused with exit 1 and one stderr line
// naming the flag, not a service that starts no worker, refuses every
// submission or wraps its budget.
func TestRefusesBadPoolSizes(t *testing.T) {
	if args := os.Getenv("HPFSERVE_ARGS"); args != "" {
		os.Args = append([]string{"hpfserve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for args, want := range map[string]string{
		"-smoke -workers -1":                  "-workers -1: must be at least 1",
		"-smoke -workers 0":                   "-workers 0: must be at least 1",
		"-smoke -queue -1":                    "-queue -1: must be at least 1",
		"-smoke -batch 0":                     "-batch 0: must be at least 1",
		"-smoke -maxnp -1":                    "-maxnp -1: must be at least 1",
		"-smoke -plan-cache-mb -1":            "-plan-cache-mb -1 outside [0,8796093022207]",
		"-smoke -plan-cache-mb 8796093022208": "-plan-cache-mb 8796093022208 outside [0,8796093022207]",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesBadPoolSizes$")
		cmd.Env = append(os.Environ(), "HPFSERVE_ARGS="+args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: err = %v, want exit status 1", args, err)
		}
		if len(out) != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.Contains(stderr.String(), want) {
			t.Errorf("%s: stdout %q stderr %q, want only a stderr line with %q", args, out, stderr.String(), want)
		}
	}
}
