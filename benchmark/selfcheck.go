package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// lastJSON decodes the last line of a run's standard output.
func lastJSON(stdout []byte) (result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20) // the per-layer line is longer than the 64 KiB default
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var r result
	err := json.Unmarshal([]byte(last), &r)
	return r, err
}

// selfCheck runs n full sets (every workload once, --trace 0, one fresh
// process per run, as the driver does) with one seed and prints, per
// workload and end-to-end metric, the quartile spread of the sets and
// their full range. It fails when a spread exceeds half the metric's
// bound, or, for the modeled metrics, when the sets are not bit-equal.
func selfCheck(n int, seed int64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "selfcheck:", err)
		return 1
	}
	names := workloads()
	got := map[string]map[string][]float64{} // workload -> metric -> one value per set
	for set := 0; set < n; set++ {
		for _, w := range names {
			name := w.def().Name
			cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "selfcheck: set %d %s: %v\n", set, name, err)
				return 1
			}
			r, err := lastJSON(stdout)
			if err != nil || !r.Correct {
				fmt.Fprintf(os.Stderr, "selfcheck: set %d %s: correct=%v err=%v\n", set, name, r.Correct, err)
				return 1
			}
			if got[name] == nil {
				got[name] = map[string][]float64{}
			}
			for m, v := range r.Metrics {
				got[name][m] = append(got[name][m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: set %d/%d %s done\n", set+1, n, name)
		}
	}

	fmt.Printf("Self-check: %d sets, seed %d, %g s per run. spread = (Q3 - Q1) / median over the sets, the driver's statistic; range = (max - min) / median; limit = bound / 2 on the spread (range 0 for the modeled metrics).\n\n", n, seed, seconds)
	fmt.Println("| workload | metric | median | spread | range | limit | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range names {
		name := w.def().Name
		for _, m := range endToEnd {
			vals := sorted(got[name][m.Name])
			med := quantile(vals, 0.5)
			spread, span, limit := quartileSpread(vals), (vals[len(vals)-1]-vals[0])/med, m.Bound/2
			verdict := "ok"
			if m.Bound == boundExact {
				limit = 0
				if span != 0 {
					verdict = "FAIL"
				}
			} else if spread > limit {
				verdict = "FAIL"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf("| %s | %s | %.6g %s | %.4f | %.4f | %.4f | %s |\n", name, m.Name, med, m.Unit, spread, span, limit, verdict)
		}
	}
	fmt.Printf("\n%d of %d comparisons outside their limit.\n", bad, len(names)*len(endToEnd))
	if bad > 0 {
		return 1
	}
	return 0
}
