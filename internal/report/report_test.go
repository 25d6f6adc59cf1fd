package report

import (
	"bytes"
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		ID:     "E1",
		Title:  "demo",
		Header: []string{"np", "time", "name"},
		Notes:  []string{"a note"},
	}
	t.AddRow("1", "0.5", "x")
	t.AddRowf(16, 0.125, "longer-name")
	return t
}

func TestRenderAligned(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== E1: demo ==", "np", "longer-name", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	// Header and data rows must align: "name" column starts at the same
	// byte offset in header and rows.
	hdr, row := lines[1], lines[4]
	if strings.Index(hdr, "name") != strings.Index(row, "longer-name") {
		t.Errorf("columns misaligned:\n%s\n%s", hdr, row)
	}
}

func TestEmptyTable(t *testing.T) {
	tab := &Table{Header: []string{"only"}}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "only") {
		t.Error("header missing")
	}
}

func TestBytesMatrixTable(t *testing.T) {
	m := [][]int64{
		{0, 512, 0},
		{20480, 0, 3},
		{0, 20 * 1024 * 1024, 0},
	}
	tab := BytesMatrixTable("traffic", m)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"src\\dst", "512", "20K", "20M", "."} {
		if !strings.Contains(out, want) {
			t.Errorf("matrix table missing %q:\n%s", want, out)
		}
	}
	if len(tab.Rows) != 3 || len(tab.Rows[0]) != 4 {
		t.Errorf("matrix table shape %dx%d", len(tab.Rows), len(tab.Rows[0]))
	}
}

func TestCountMatrixTable(t *testing.T) {
	m := [][]int64{
		{0, 7},
		{12345, 0},
	}
	tab := CountMatrixTable("messages", m)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Counts render raw (no K/M scaling); zeros render as ".".
	for _, want := range []string{"src\\dst", "7", "12345", "."} {
		if !strings.Contains(out, want) {
			t.Errorf("count table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "12K") {
		t.Errorf("count table scaled a count:\n%s", out)
	}
	if len(tab.Rows) != 2 || len(tab.Rows[0]) != 3 {
		t.Errorf("count table shape %dx%d", len(tab.Rows), len(tab.Rows[0]))
	}
}
