package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseIssueExample(t *testing.T) {
	plan, err := Parse("crash:rank=2@t=0.5ms,straggle:rank=1,x=4")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	want := []Event{
		{Kind: Crash, Rank: 2, At: 0.0005, Dst: -1},
		{Kind: Straggle, Rank: 1, Factor: 4, Dst: -1},
	}
	if !reflect.DeepEqual(plan.Events, want) {
		t.Fatalf("Parse = %+v, want %+v", plan.Events, want)
	}
}

func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"crash:rank=2@t=0.5ms,straggle:rank=1,x=4",
		"drop:rank=0@t=1us,n=3,dst=2,spike:rank=3@t=2,until=5,x=1.5,delay=10us",
		"straggle:rank=1@t=0.25,until=0.75,x=8,crash:rank=0@t=1e-05",
		"drop:rank=4",
		"spike:rank=2,delay=0.003",
	}
	for _, spec := range specs {
		plan, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		again, err := Parse(plan.String())
		if err != nil {
			t.Fatalf("Parse(String(%q) = %q): %v", spec, plan.String(), err)
		}
		if !reflect.DeepEqual(plan, again) {
			t.Errorf("round trip of %q via %q: %+v != %+v", spec, plan.String(), plan, again)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := map[string]string{
		"rank=2":                   "kind prefix",
		"crash:rank=x":             "rank=x",
		"crash:rank=2,zap=1":       "unknown key",
		"crash":                    "rank",     // rank missing -> Validate
		"straggle:rank=1":          "positive", // factor missing
		"spike:rank=1":             "x>1 or delay>0",
		"crash:rank=1@t=2,until=1": "not after",
		"drop:rank=1,n=-2":         "negative drop count",
		"crash:rank=1@t=-1s":       "negative start",
	}
	for spec, frag := range bad {
		_, err := Parse(spec)
		if err == nil {
			t.Errorf("Parse(%q): expected error", spec)
		} else if !strings.Contains(err.Error(), frag) {
			t.Errorf("Parse(%q) = %v, want mention of %q", spec, err, frag)
		}
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := RandomPlan(42, 8, 0.01, 0.1)
	b := RandomPlan(42, 8, 0.01, 0.1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("expected some crashes with mtbf=10ms over a 100ms horizon")
	}
	for _, e := range a.Events {
		if e.Kind != Crash || e.At <= 0 || e.At >= 0.1 || e.Rank < 0 || e.Rank >= 8 {
			t.Fatalf("implausible event %+v", e)
		}
	}
	c := RandomPlan(43, 8, 0.01, 0.1)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("RandomPlan invalid: %v", err)
	}
}

func TestCrashScheduleAndAdvance(t *testing.T) {
	plan := Plan{Events: []Event{
		{Kind: Crash, Rank: 1, At: 1.0, Dst: -1},
		{Kind: Crash, Rank: 1, At: 2.5, Dst: -1},
		{Kind: Crash, Rank: 9, At: 0.5, Dst: -1}, // beyond np, ignored
	}}
	in, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	ris := in.StartRun(4)
	if ris[0] != nil || ris[2] != nil || ris[3] != nil {
		t.Fatal("healthy ranks must get nil injectors")
	}
	if at, ok := ris[1].CrashTime(); !ok || at != 1.0 {
		t.Fatalf("first run crash = (%g,%v), want (1,true)", at, ok)
	}
	// The run died at modeled t=1.2; the first crash is consumed and
	// the second shifts into the next run's local clock.
	in.Advance(1.2)
	if at, ok := in.StartRun(4)[1].CrashTime(); !ok || math.Abs(at-1.3) > 1e-15 {
		t.Fatalf("second run crash = (%g,%v), want (1.3,true)", at, ok)
	}
	in.Advance(2.0) // past the second crash too
	if ri := in.StartRun(4)[1]; ri != nil {
		if _, ok := ri.CrashTime(); ok {
			t.Fatal("all crashes consumed; none should be scheduled")
		}
	}
	if in.offset != 3.2 {
		t.Fatalf("offset = %g, want 3.2", in.offset)
	}
}

func TestDropConsumesCount(t *testing.T) {
	in, err := NewInjector(Plan{Events: []Event{
		{Kind: Drop, Rank: 0, Count: 2, Dst: -1},
		{Kind: Drop, Rank: 0, At: 5, Dst: 3}, // later window, dst-filtered
	}})
	if err != nil {
		t.Fatal(err)
	}
	ri := in.StartRun(4)[0]
	for i := 0; i < 2; i++ {
		if drop, _ := ri.SendFault(1, 0.1, 1e-6); !drop {
			t.Fatalf("send %d: expected drop", i)
		}
	}
	if drop, _ := ri.SendFault(1, 0.2, 1e-6); drop {
		t.Fatal("count exhausted; message must pass")
	}
	// The dst-filtered drop only fires toward rank 3 after t=5.
	if drop, _ := ri.SendFault(1, 6, 1e-6); drop {
		t.Fatal("dst filter ignored")
	}
	if drop, _ := ri.SendFault(3, 6, 1e-6); !drop {
		t.Fatal("dst-filtered drop did not fire")
	}
	// Consumption survives a restart: a fresh StartRun sees no drops left.
	in.Advance(7)
	if ris := in.StartRun(4); ris[0] != nil {
		if drop, _ := ris[0].SendFault(3, 0.1, 1e-6); drop {
			t.Fatal("consumed drop fired again after restart")
		}
	}
}

func TestStraggleAndSpikeWindows(t *testing.T) {
	in, err := NewInjector(Plan{Events: []Event{
		{Kind: Straggle, Rank: 2, At: 1, Until: 2, Factor: 4, Dst: -1},
		{Kind: Straggle, Rank: 2, At: 1.5, Until: 3, Factor: 2, Dst: -1},
		{Kind: Spike, Rank: 2, At: 1, Until: 2, Factor: 3, Delay: 0.25, Dst: -1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ri := in.StartRun(4)[2]
	cases := []struct {
		t    float64
		want float64
	}{
		{0.5, 1}, {1.2, 4}, {1.7, 8}, {2.3, 2}, {3.5, 1},
	}
	for _, c := range cases {
		if got := ri.FlopFactor(c.t); got != c.want {
			t.Errorf("FlopFactor(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if _, delay := ri.SendFault(0, 1.5, 0.1); math.Abs(delay-(2*0.1+0.25)) > 1e-15 {
		t.Errorf("spike delay = %g, want %g", delay, 2*0.1+0.25)
	}
	if drop, delay := ri.SendFault(0, 2.5, 0.1); drop || delay != 0 {
		t.Errorf("outside window: (%v,%g), want (false,0)", drop, delay)
	}
	// Windows shift with the mission offset.
	in.Advance(0.9)
	ri = in.StartRun(4)[2]
	if got := ri.FlopFactor(0.2); got != 4 {
		t.Errorf("after Advance(0.9): FlopFactor(0.2) = %g, want 4", got)
	}
}

// FuzzFaultParse: the -fault / "fault" spec parser never panics; an
// accepted plan carries finite, in-domain numbers and re-renders to a
// canonical string that parses back to the same plan.
func FuzzFaultParse(f *testing.F) {
	for _, s := range []string{
		"crash:rank=2@t=0.5ms", "crash:rank=2@t=0.5ms,straggle:rank=1,x=4",
		"drop:rank=0,n=2,dst=1", "spike:rank=1,until=2s,x=3,delay=1us",
		"crash:rank=nope", "crash", "rank=1", "", ",,", "crash:rank=1@t=-1s", "straggle:rank=1,x=0",
		"crash:rank=1@t=NaN", "straggle:rank=1,x=Inf", "spike:rank=0,delay=+Inf", "crash:rank=1@t=0x1p-2",
		"crash:rank=1,dst=-7", "crash:rank=1,bogus=3", "crash:rank=1@", "crash:rank==",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		for i, e := range p.Events {
			for _, v := range []float64{e.At, e.Until, e.Factor, e.Delay} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("Parse(%q): event %d carries non-finite %v", spec, i, v)
				}
			}
			if e.Rank < 0 || e.At < 0 {
				t.Fatalf("Parse(%q): event %d = %+v outside the domain Validate promises", spec, i, e)
			}
		}
		canon := p.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, but its canonical form %q does not parse: %v", spec, canon, err)
		}
		if back.String() != canon {
			t.Fatalf("Parse(%q): canonical form %q re-renders as %q", spec, canon, back.String())
		}
		if len(back.Events) != len(p.Events) {
			t.Fatalf("Parse(%q): %d events, canonical form %q has %d", spec, len(p.Events), canon, len(back.Events))
		}
		for i := range p.Events {
			a, b := p.Events[i], back.Events[i]
			// Every negative Dst means "any destination" and renders as none.
			a.Dst, b.Dst = max(a.Dst, -1), max(b.Dst, -1)
			if a != b {
				t.Fatalf("Parse(%q): event %d = %+v, canonical form %q gives %+v", spec, i, a, canon, b)
			}
		}
	})
}
