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
// an -sstep outside [-1,16]. A -problem the grammar does not take exactly
// is refused naming the argument, and a flag the solve would not read is
// refused too: -problem with -file, a layout (-demo) or a directive file
// with a stencil problem, -ckpt/-restarts without -resilient.
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

		"-problem stencil:5pt:32x24junk":         `problem "stencil:5pt:32x24junk"`,
		"-problem stencil:27pt:4x4x4x4":          `problem "stencil:27pt:4x4x4x4"`,
		"-problem hpcg:4x4x4junk":                `problem "hpcg:4x4x4junk"`,
		"-problem hpcg:4x4x4x9":                  `problem "hpcg:4x4x4x9"`,
		"-problem hpcg:0x4x4":                    "field mg.nx: 0 outside [1, 256]",
		"-problem hpcg:4x4x4 -demo csc-merge":    "field layout: does not apply to hpcg problems",
		"-problem stencil:5pt:32x24 -demo csr":   "field layout: does not apply to stencil problems",
		"-problem stencil:5pt:32x24 -file m.mtx": "-problem does not apply with -file",
		"-problem stencil:5pt:32x24 figure2.hpf": "a stencil problem is never assembled",
		"-demo csr -ckpt 5":                      "-ckpt needs -resilient",
		"-demo csr -resilient=false -restarts 2": "-restarts needs -resilient",
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
