package serve

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// TestServedVariantAdmissionPinned pins what the service does with
// every method × sstep × pipelined × resilient combination of a job's
// variant knobs: the verdict (accepted, or the field a 400 names) and,
// for an accepted job, the recurrence that ran, the sstep and pipelined
// fields its result reports, and its iteration count. The recurrence is
// read off the result: recovery attempts mark the resilient solver, the
// pipelined flag the overlap solver, the strategy's s-step marker the
// blocking factor; anything else ran plain CG. The solve's modeled span
// tells the recurrences apart where their iteration counts agree.
func TestServedVariantAdmissionPinned(t *testing.T) {
	bases := []struct {
		name string
		spec JobSpec
	}{
		{"cg", JobSpec{Matrix: "laplace2d:12:12", NP: 4, Seed: 3}},
		{"cg/csc", JobSpec{Matrix: "laplace2d:12:12", Layout: "csc-serial", NP: 4, Seed: 3}},
		{"hpcg", JobSpec{Method: "hpcg", MG: &MGSpec{Nx: 4, Ny: 4, Nz: 4}, NP: 2, Seed: 3}},
		{"stencil", JobSpec{Method: "stencil", Stencil: &StencilSpec{Stencil: "5pt", Nx: 12, Ny: 12}, NP: 4, Seed: 3}},
	}
	want := map[string]string{
		"cg/s=0/p=false/r=false":       "ok sstep:4 sstep=4 pipelined=false it=44 t=0.00233949",
		"cg/s=0/p=false/r=true":        "ok resilient sstep=1 pipelined=false it=44 t=0.00497512",
		"cg/s=0/p=true/r=false":        "ok pipelined sstep=0 pipelined=true it=44 t=0.0022885",
		"cg/s=0/p=true/r=true":         "400 pipelined",
		"cg/s=1/p=false/r=false":       "ok plain sstep=1 pipelined=false it=44 t=0.00490056",
		"cg/s=1/p=false/r=true":        "ok resilient sstep=1 pipelined=false it=44 t=0.00497512",
		"cg/s=1/p=true/r=false":        "ok pipelined sstep=0 pipelined=true it=44 t=0.0022885",
		"cg/s=1/p=true/r=true":         "400 pipelined",
		"cg/s=2/p=false/r=false":       "ok sstep:2 sstep=2 pipelined=false it=44 t=0.00242084",
		"cg/s=2/p=false/r=true":        "ok resilient sstep=1 pipelined=false it=44 t=0.00497512",
		"cg/s=2/p=true/r=false":        "400 pipelined",
		"cg/s=2/p=true/r=true":         "400 pipelined",
		"cg/s=99/p=false/r=false":      "400 sstep",
		"cg/s=99/p=false/r=true":       "ok resilient sstep=1 pipelined=false it=44 t=0.00497512",
		"cg/s=99/p=true/r=false":       "400 sstep",
		"cg/s=99/p=true/r=true":        "400 pipelined",
		"cg/s=-1/p=false/r=false":      "400 sstep",
		"cg/s=-1/p=false/r=true":       "ok resilient sstep=1 pipelined=false it=44 t=0.00497512",
		"cg/s=-1/p=true/r=false":       "400 sstep",
		"cg/s=-1/p=true/r=true":        "400 pipelined",
		"cg/csc/s=0/p=false/r=false":   "ok plain sstep=1 pipelined=false it=44 t=0.00867724",
		"cg/csc/s=0/p=false/r=true":    "ok resilient sstep=1 pipelined=false it=44 t=0.0087518",
		"cg/csc/s=0/p=true/r=false":    "400 pipelined",
		"cg/csc/s=0/p=true/r=true":     "400 pipelined",
		"cg/csc/s=1/p=false/r=false":   "ok plain sstep=1 pipelined=false it=44 t=0.00867724",
		"cg/csc/s=1/p=false/r=true":    "ok resilient sstep=1 pipelined=false it=44 t=0.0087518",
		"cg/csc/s=1/p=true/r=false":    "400 pipelined",
		"cg/csc/s=1/p=true/r=true":     "400 pipelined",
		"cg/csc/s=2/p=false/r=false":   "400 sstep",
		"cg/csc/s=2/p=false/r=true":    "ok resilient sstep=1 pipelined=false it=44 t=0.0087518",
		"cg/csc/s=2/p=true/r=false":    "400 sstep",
		"cg/csc/s=2/p=true/r=true":     "400 pipelined",
		"cg/csc/s=99/p=false/r=false":  "400 sstep",
		"cg/csc/s=99/p=false/r=true":   "ok resilient sstep=1 pipelined=false it=44 t=0.0087518",
		"cg/csc/s=99/p=true/r=false":   "400 sstep",
		"cg/csc/s=99/p=true/r=true":    "400 pipelined",
		"cg/csc/s=-1/p=false/r=false":  "400 sstep",
		"cg/csc/s=-1/p=false/r=true":   "ok resilient sstep=1 pipelined=false it=44 t=0.0087518",
		"cg/csc/s=-1/p=true/r=false":   "400 sstep",
		"cg/csc/s=-1/p=true/r=true":    "400 pipelined",
		"hpcg/s=0/p=false/r=false":     "ok plain sstep=0 pipelined=false it=6 t=0.00178928",
		"hpcg/s=0/p=false/r=true":      "400 resilient",
		"hpcg/s=0/p=true/r=false":      "400 pipelined",
		"hpcg/s=0/p=true/r=true":       "400 pipelined",
		"hpcg/s=1/p=false/r=false":     "400 sstep",
		"hpcg/s=1/p=false/r=true":      "400 sstep",
		"hpcg/s=1/p=true/r=false":      "400 sstep",
		"hpcg/s=1/p=true/r=true":       "400 sstep",
		"hpcg/s=2/p=false/r=false":     "400 sstep",
		"hpcg/s=2/p=false/r=true":      "400 sstep",
		"hpcg/s=2/p=true/r=false":      "400 sstep",
		"hpcg/s=2/p=true/r=true":       "400 sstep",
		"hpcg/s=99/p=false/r=false":    "400 sstep",
		"hpcg/s=99/p=false/r=true":     "400 sstep",
		"hpcg/s=99/p=true/r=false":     "400 sstep",
		"hpcg/s=99/p=true/r=true":      "400 sstep",
		"hpcg/s=-1/p=false/r=false":    "400 sstep",
		"hpcg/s=-1/p=false/r=true":     "400 sstep",
		"hpcg/s=-1/p=true/r=false":     "400 sstep",
		"hpcg/s=-1/p=true/r=true":      "400 sstep",
		"stencil/s=0/p=false/r=false":  "ok plain sstep=0 pipelined=false it=44 t=0.00490074",
		"stencil/s=0/p=false/r=true":   "400 resilient",
		"stencil/s=0/p=true/r=false":   "ok pipelined sstep=0 pipelined=true it=44 t=0.00228868",
		"stencil/s=0/p=true/r=true":    "400 pipelined",
		"stencil/s=1/p=false/r=false":  "400 sstep",
		"stencil/s=1/p=false/r=true":   "400 sstep",
		"stencil/s=1/p=true/r=false":   "400 sstep",
		"stencil/s=1/p=true/r=true":    "400 sstep",
		"stencil/s=2/p=false/r=false":  "400 sstep",
		"stencil/s=2/p=false/r=true":   "400 sstep",
		"stencil/s=2/p=true/r=false":   "400 sstep",
		"stencil/s=2/p=true/r=true":    "400 sstep",
		"stencil/s=99/p=false/r=false": "400 sstep",
		"stencil/s=99/p=false/r=true":  "400 sstep",
		"stencil/s=99/p=true/r=false":  "400 sstep",
		"stencil/s=99/p=true/r=true":   "400 sstep",
		"stencil/s=-1/p=false/r=false": "400 sstep",
		"stencil/s=-1/p=false/r=true":  "400 sstep",
		"stencil/s=-1/p=true/r=false":  "400 sstep",
		"stencil/s=-1/p=true/r=true":   "400 sstep",
	}
	field := regexp.MustCompile(`field (\S+):`)
	// With the plan registry off every job runs cold, so a span does not
	// depend on which earlier row left a plan behind.
	s := New(Options{Workers: 1, PlanCacheBytes: -1})
	defer s.Drain(testCtx(t))
	got := map[string]string{}
	for _, base := range bases {
		for _, sstep := range []int{0, 1, 2, 99, -1} {
			for _, pipelined := range []bool{false, true} {
				for _, resilient := range []bool{false, true} {
					spec := base.spec
					spec.SStep, spec.Pipelined, spec.Resilient = sstep, pipelined, resilient
					name := fmt.Sprintf("%s/s=%d/p=%v/r=%v", base.name, sstep, pipelined, resilient)
					j, err := s.Submit(spec)
					var ve *ValidationError
					if errors.As(err, &ve) {
						m := field.FindStringSubmatch(err.Error())
						if m == nil {
							t.Errorf("%s: 400 %q names no field", name, err)
							continue
						}
						got[name] = "400 " + m[1]
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					v, err := s.Wait(testCtx(t), j.ID)
					if err != nil {
						t.Fatal(err)
					}
					if v.State != StateDone || !v.Result.Converged {
						t.Fatalf("%s: job %+v", name, v)
					}
					r := v.Result
					rec := "plain"
					switch m := regexp.MustCompile(`s-step\(s=(\d+)\)`).FindStringSubmatch(r.Strategy); {
					case r.Attempts > 0:
						rec = "resilient"
					case r.Pipelined:
						rec = "pipelined"
					case m != nil:
						rec = "sstep:" + m[1]
					}
					got[name] = fmt.Sprintf("ok %s sstep=%d pipelined=%v it=%d t=%.6g", rec, r.SStep, r.Pipelined, r.Iterations, r.SolveModelTime)
				}
			}
		}
	}
	var diff []string
	for name, g := range got {
		if w := want[name]; g != w {
			diff = append(diff, fmt.Sprintf("%q: %q, // want %q", name, g, w))
		}
	}
	if len(diff) > 0 {
		t.Errorf("%d rows moved:\n%s", len(diff), strings.Join(diff, "\n"))
	}
}
