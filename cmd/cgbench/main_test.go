package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hpfcg/internal/trace"
)

// run runs the command (this test binary, re-entered as main through
// the named test) with args and returns its stdout, stderr and exit
// status.
func run(t *testing.T, test, args string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), "CGBENCH_ARGS="+args)
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
	if args := os.Getenv("CGBENCH_ARGS"); args != "" {
		os.Args = append([]string{"cgbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
}

// TestInjectedCrashExitsWithError runs the command with a crash
// injected into every machine and wants exit 1 with one stderr line
// naming the crashed processor, not a panic and its goroutine dump.
func TestInjectedCrashExitsWithError(t *testing.T) {
	reenter()
	out, msg, code := run(t, "TestInjectedCrashExitsWithError", "-quick -exp E1 -fault crash:rank=1@t=0.1ms")
	if code != 1 {
		t.Errorf("exit status %d, want 1", code)
	}
	if len(out) != 0 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "processor 1 failed") {
		t.Errorf("stdout %q stderr %q, want only one stderr line naming processor 1", out, msg)
	}
}

// TestTraceWritesOneFilePerRun runs two experiments under -trace: E2
// builds two machines and so writes two Chrome traces, each with
// events, and E7 builds none, writes nothing and still exits 0. A
// -trace path that cannot be a directory exits 1 with one stderr line.
func TestTraceWritesOneFilePerRun(t *testing.T) {
	reenter()
	dir := t.TempDir()
	out, msg, code := run(t, "TestTraceWritesOneFilePerRun", "-quick -exp E2,E7 -trace "+dir)
	if code != 0 || msg != "" {
		t.Fatalf("exit status %d, stderr %q", code, msg)
	}
	for _, want := range []string{"traced 2 machine runs of E2:", "detail: run 1 (run1-np4)", "critical path", "timeline run1-np4", "traced 0 machine runs of E7"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout lacks %q", want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := "E2-run0-np2.trace.json E2-run1-np4.trace.json"; strings.Join(names, " ") != want {
		t.Fatalf("files %v, want %s", names, want)
	}
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var doc trace.ChromeTrace
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("%s has no events", name)
		}
	}

	notDir := filepath.Join(dir, "E2-run0-np2.trace.json", "sub")
	out, msg, code = run(t, "TestTraceWritesOneFilePerRun", "-quick -exp E2 -trace "+notDir)
	if code != 1 || out != "" || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "cgbench: ") {
		t.Errorf("-trace %s: exit %d stdout %q stderr %q, want exit 1 and one stderr line", notDir, code, out, msg)
	}
}
