package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// own files. parent is the index of the span that caused it (-1 for a
// root); spans of one job share its id.
type span struct {
	layer, name string
	start, end  time.Duration // since the tracer's epoch
	parent      int
	job         int
}

// tracer keeps spans in memory until the pass ends. A nil tracer
// records nothing, which is how the untraced rounds run the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(layer, name string, parent, job int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, name: name, start: now, end: now, parent: parent, job: job})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// add records a span whose endpoints were measured elsewhere (the
// service's own queue and run stamps).
func (t *tracer) add(layer, name string, start, end time.Time, parent, job int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: layer, name: name, start: start.Sub(t.epoch), end: end.Sub(t.epoch), parent: parent, job: job})
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children count
// once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	children := make([][]iv, len(spans))
	for _, s := range spans {
		if s.parent < 0 || s.parent >= len(spans) {
			continue
		}
		p := spans[s.parent]
		a, b := max(s.start, p.start), min(s.end, p.end)
		if b > a {
			children[s.parent] = append(children[s.parent], iv{a, b})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := children[i]
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, edge := time.Duration(0), s.start
		for _, c := range ivs {
			if c.b <= edge {
				continue
			}
			covered += c.b - max(c.a, edge)
			edge = c.b
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		out[spans[i].layer] += d
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto): one complete event per span, one
// track per job.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(t.spans)
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.layer + "." + s.name, Cat: s.layer, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.job + 1,
			Args: map[string]any{"span": i, "parent": s.parent, "job": s.job, "self_us": us(self[i])},
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
