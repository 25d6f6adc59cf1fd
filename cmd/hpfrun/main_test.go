package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRefusesOutOfRangeVariantFlags runs the command (this test binary,
// re-entered as main) and wants every -variant the grammar does not
// take exactly refused with exit 1 and one stderr line naming it, not a
// solve that runs some other variant: a negative checkpoint interval or
// restart budget, an s-step factor outside [2,16] (s = 1 is plain), an
// unknown kind, or trailing junk. A variant the problem's backend does
// not run is refused by the legality table. A -problem the grammar
// does not take exactly is refused naming the argument, and a flag the
// solve would not read is refused too: -problem with -file, a layout
// (-demo) or a directive file with a stencil problem.
func TestRefusesOutOfRangeVariantFlags(t *testing.T) {
	if args := os.Getenv("HPFRUN_ARGS"); args != "" {
		os.Args = append([]string{"hpfrun"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	const crash = "-np 4 -demo csr -fault crash:rank=2@t=0.5ms -variant "
	for args, want := range map[string]string{
		crash + "resilient:ckpt=-3":                      `variant "resilient:ckpt=-3": field ckpt_interval: negative bound -3`,
		crash + "resilient:ckpt=5,restarts=-2":           `variant "resilient:ckpt=5,restarts=-2": field max_restarts: negative bound -2`,
		"-demo csr -variant sstep:-5":                    `variant "sstep:-5": field sstep: -5 outside [2,16]`,
		"-demo csr -variant sstep:99":                    `variant "sstep:99": field sstep: 99 outside [2,16]`,
		"-demo csr -variant sstep:1":                     `variant "sstep:1": s = 1 is plain CG`,
		"-demo csr -variant gmres":                       `variant "gmres": want plain`,
		"-demo csr -variant sstep:4junk":                 `variant "sstep:4junk": want plain`,
		"-demo csr -variant pipelined,sstep:4":           `variant "pipelined,sstep:4": want plain`,
		"-demo csr -variant resilient:ckpt=5:x":          `variant "resilient:ckpt=5:x": want plain`,
		"-demo csc-merge -variant sstep:4":               "field sstep: 4 needs a CSR layout, got csc",
		"-problem hpcg:4x4x4 -variant pipelined":         "field pipelined: does not apply to hpcg jobs",
		"-problem stencil:5pt:32x24 -variant sstep:auto": "field sstep: does not apply to stencil jobs",
		"-problem stencil:5pt:32x24 -variant resilient":  "field resilient: checkpoint/restart needs an assembled matrix",
		"-problem stencil:5pt:32x24 -variant bicg":       "field method: bicg needs an assembled matrix, not a stencil job",
		"-problem hpcg:4x4x4 -variant bicg":              "field method: bicg needs an assembled matrix, not a hpcg job",

		"-problem stencil:5pt:32x24junk":         `problem "stencil:5pt:32x24junk"`,
		"-problem stencil:27pt:4x4x4x4":          `problem "stencil:27pt:4x4x4x4"`,
		"-problem hpcg:4x4x4junk":                `problem "hpcg:4x4x4junk"`,
		"-problem hpcg:4x4x4x9":                  `problem "hpcg:4x4x4x9"`,
		"-problem hpcg:0x4x4":                    "field mg.nx: 0 outside [1, 256]",
		"-problem hpcg:4x4x4 -demo csc-merge":    "field layout: does not apply to hpcg problems",
		"-problem stencil:5pt:32x24 -demo csr":   "field layout: does not apply to stencil problems",
		"-problem stencil:5pt:32x24 -file m.mtx": "-problem does not apply with -file",
		"-problem stencil:5pt:32x24 figure2.hpf": "a stencil problem is never assembled",
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
