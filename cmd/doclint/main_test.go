package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestReachabilityRule runs rule 3 on the testdata/mini module: an
// exported func and a method that only a_test.go reaches, and a method
// named like a standard-library function cmd/app calls, are reported;
// a method an interface declares, a String method, a name used only
// inside its own package and an allow-listed name are not.
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
