package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestReachabilityRule runs rule 3 on the testdata/mini module: an
// exported func and a method that only a_test.go reaches are reported,
// and so are the methods a name alone does not reach — one named like a
// standard-library function cmd/app calls, like a field it selects, or
// like another type's method it calls, and one whose interface cmd/app
// declares but never calls — and a type named only as its own method's
// receiver. A method cmd/app calls through an interface, a String
// method, a name used only inside its own package and an allow-listed
// name are not.
func TestReachabilityRule(t *testing.T) {
	got, err := lint("testdata/mini", map[string]string{
		"internal/a.Allowed": "reference: the fixture's allow-listed name",
	})
	if err != nil {
		t.Fatal(err)
	}
	const tail = " is reached only from tests; delete it or allow-list it with its reason"
	want := []string{
		"internal/a/a.go:25: exported method internal/a.T.Dead" + tail,
		"internal/a/a.go:35: exported method internal/a.T.Quote" + tail,
		"internal/a/a.go:39: exported method internal/a.T.Spec" + tail,
		"internal/a/a.go:42: exported method internal/a.T.Run" + tail,
		"internal/a/a.go:45: exported method internal/a.T.Size" + tail,
		"internal/a/a.go:54: exported type internal/a.Orphan" + tail,
		"internal/a/a.go:8: exported func internal/a.Unused" + tail,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestAllowListHygiene: an allow-list entry must name an unreached
// identifier that exists, with a reason of one of the two kinds.
func TestAllowListHygiene(t *testing.T) {
	got, err := lint("testdata/mini", map[string]string{
		"internal/a.Allowed": "because",
		"internal/a.Unused":  "staged: fixture",
		"internal/a.T.Dead":  "accessor: fixture",
		"internal/a.T.Quote": "accessor: fixture",
		"internal/a.T.Spec":  "accessor: fixture",
		"internal/a.T.Run":   "accessor: fixture",
		"internal/a.T.Size":  "accessor: fixture",
		"internal/a.Orphan":  "accessor: fixture",
		"internal/a.Used":    "reference: fixture",
		"internal/a.Gone":    "reference: fixture",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`allow-list entry internal/a.Allowed: reason "because" must start with one of reference: accessor:`,
		`allow-list entry internal/a.Gone: no such exported identifier in internal/`,
		`allow-list entry internal/a.Unused: reason "staged: fixture" must start with one of reference: accessor:`,
		`allow-list entry internal/a.Used ("reference: fixture"): reached from non-test code; drop the entry`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepository holds the module to all three rules, so `go test
// ./...` enforces the documentation and reachability floors.
func TestRepository(t *testing.T) {
	got, err := lint("../..", allowed)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > 0 {
		t.Errorf("%d problem(s):\n%s", len(got), strings.Join(got, "\n"))
	}
}

// TestBrokenModule: a package that does not type-check, and a
// directory go list cannot list, are problems naming the error; neither
// panics nor passes.
func TestBrokenModule(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":          "module broken\n\ngo 1.22\n",
		"internal/b/b.go": "// Package b does not compile.\npackage b\n\n// X is not an int.\nvar X int = \"s\"\n",
	} {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := lint(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !strings.Contains(strings.Join(got, "\n"), `internal/b/b.go:5:13: cannot use "s"`) {
		t.Errorf("problems %q, want the type error at internal/b/b.go:5:13", got)
	}
	got, err = lint(t.TempDir(), nil)
	if err != nil || !strings.Contains(strings.Join(got, "\n"), "does not contain main module") {
		t.Errorf("lint outside a module: problems %q, err %v; want go list's error as a problem", got, err)
	}
}
