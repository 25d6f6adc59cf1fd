package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestInjectedCrashExitsWithError runs the command (this test binary,
// re-entered as main) with a crash injected into every machine and
// wants exit 1 with one stderr line naming the crashed processor, not a
// panic and its goroutine dump.
func TestInjectedCrashExitsWithError(t *testing.T) {
	if args := os.Getenv("CGBENCH_ARGS"); args != "" {
		os.Args = append([]string{"cgbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestInjectedCrashExitsWithError$")
	cmd.Env = append(os.Environ(), "CGBENCH_ARGS=-quick -exp E1 -fault crash:rank=1@t=0.1ms")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("err = %v, want exit status 1", err)
	}
	msg := stderr.String()
	if len(out) != 0 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "processor 1 failed") {
		t.Errorf("stdout %q stderr %q, want only one stderr line naming processor 1", out, msg)
	}
}
