package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRefusesOutOfRangeVariantFlags runs the command (this test binary,
// re-entered as main) and wants every out-of-range variant flag refused
// with exit 1 and one stderr line naming it, not a solve that runs with
// some other value: a negative checkpoint interval or restart budget, or
// an -sstep outside [-1,16]. A flag the solve would not read is refused
// the same way: -hpcg and -stencil with each other or with a matrix
// input, -levels/-smooths without -hpcg, -ckpt/-restarts without
// -resilient.
func TestRefusesOutOfRangeVariantFlags(t *testing.T) {
	if args := os.Getenv("HPFRUN_ARGS"); args != "" {
		os.Args = append([]string{"hpfrun"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	const crash = "-np 4 -demo csr -fault crash:rank=2@t=0.5ms -resilient "
	for args, want := range map[string]string{
		crash + "-ckpt -3":     "field ckpt_interval: negative bound -3",
		crash + "-restarts -2": "field max_restarts: negative bound -2",
		"-demo csr -sstep -5":  "-sstep -5 outside [-1,16]",
		"-demo csr -sstep 99":  "-sstep 99 outside [-1,16]",

		"-stencil 5pt:32,24 -hpcg 4,4,4":           "-stencil does not apply with -hpcg",
		"-hpcg 4,4,4 -demo csc-merge -matrix nope": "-demo does not apply with -hpcg",
		"-stencil 5pt:32,24 -file m.mtx":           "-file does not apply with -stencil",
		"-stencil 5pt:32,24 figure2.hpf":           "a directive file does not apply with -stencil",
		"-demo csr -levels 3 -smooths 2":           "-levels needs -hpcg",
		"-stencil 5pt:32,24 -smooths 2":            "-smooths needs -hpcg",
		"-demo csr -ckpt 5":                        "-ckpt needs -resilient",
		"-demo csr -resilient=false -restarts 2":   "-restarts needs -resilient",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRefusesOutOfRangeVariantFlags$")
		cmd.Env = append(os.Environ(), "HPFRUN_ARGS="+args)
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
