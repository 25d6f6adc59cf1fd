package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/dist"
	"hpfcg/internal/fault"
	"hpfcg/internal/sparse"
	"hpfcg/internal/spmv"
	"hpfcg/internal/topology"
	"hpfcg/internal/trace"
)

// runFaultySpMV runs the CSR SpMV with both a tracer and a non-fatal
// fault plan (straggle + spike) attached, so injected events land in
// the recorder without killing the run.
func runFaultySpMV(t *testing.T) *trace.Recorder {
	t.Helper()
	n := 256
	np := 4
	A := sparse.Banded(n, 4)
	d := dist.NewBlock(n, np)
	m := comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
	tr := &trace.Tracer{}
	m.AttachTracer(tr)
	inj, err := fault.NewInjector(fault.Plan{Events: []fault.Event{
		{Kind: fault.Straggle, Rank: 1, At: 0, Factor: 4, Dst: -1},
		{Kind: fault.Spike, Rank: 2, At: 0, Delay: 1e-4, Dst: -1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	m.AttachInjector(inj)
	m.Run(func(p *comm.Proc) {
		op := spmv.NewRowBlockCSR(p, A, d)
		x := darray.New(p, d)
		y := darray.New(p, d)
		x.Fill(1)
		op.Apply(x, y)
	})
	return tr.Runs()[0]
}

// TestChromeTraceExportsFaultInstants: injected fault events export as
// Perfetto thread-scoped instant events (ph "i", s "t", cat "fault")
// on the affected rank's row, and the counts match the recorder.
func TestChromeTraceExportsFaultInstants(t *testing.T) {
	rec := runFaultySpMV(t)

	wantFaults := 0
	faultRanks := map[int]bool{}
	for r := 0; r < rec.NP(); r++ {
		for _, e := range rec.RankEvents(r) {
			if e.Kind == trace.KindFault {
				wantFaults++
				faultRanks[e.Rank] = true
				if e.Start != e.End {
					t.Errorf("fault event %q has nonzero duration %g", e.Op, e.Duration())
				}
			}
		}
	}
	if wantFaults == 0 {
		t.Fatal("straggle+spike plan produced no fault events in the recorder")
	}
	if !faultRanks[1] || !faultRanks[2] {
		t.Errorf("fault events on ranks %v, want both rank 1 (straggle) and 2 (spike)", faultRanks)
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeTrace(&buf, rec); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc trace.ChromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	instants := 0
	ops := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "fault" {
			continue
		}
		instants++
		ops[ev.Name] = true
		if ev.Ph != "i" || ev.S != "t" {
			t.Errorf("fault event %q exported as ph=%q s=%q, want instant ph=i s=t", ev.Name, ev.Ph, ev.S)
		}
		if ev.Dur != 0 {
			t.Errorf("fault instant %q has duration %g", ev.Name, ev.Dur)
		}
	}
	if instants != wantFaults {
		t.Errorf("%d fault instants exported, recorder holds %d fault events", instants, wantFaults)
	}
	if !ops["straggle"] || !ops["spike"] {
		t.Errorf("exported fault ops %v, want straggle and spike markers", ops)
	}

	// The ASCII timeline marks the same instants with '!'.
	var tl bytes.Buffer
	if err := trace.WriteTimeline(&tl, rec, 60); err != nil {
		t.Fatalf("WriteTimeline: %v", err)
	}
	if !strings.Contains(tl.String(), "!") {
		t.Errorf("timeline shows no fault marker:\n%s", tl.String())
	}

	// Fault instants must not corrupt the critical-path analysis.
	ps := trace.CriticalPath(rec)
	if ps.Length <= 0 || ps.Length > rec.ModelTime()+1e-12 {
		t.Errorf("critical path %g out of (0, makespan=%g]", ps.Length, rec.ModelTime())
	}
}
