package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one op share the op's root as an ancestor.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	start  time.Time
	end    time.Time
	// Filled by finish.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so traced and untraced ops run the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(parent int, name, attr string) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Attr: attr, start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id-1].end = now
	r.mu.Unlock()
}

// layer runs fn inside a span named name under parent.
func (r *recorder) layer(parent int, name string, fn func()) {
	id := r.begin(parent, name, "")
	fn()
	r.end(id)
}

// finish computes every span's self time — its duration minus the part
// of it that its children cover — and returns the spans.
func (r *recorder) finish() []span {
	children := map[int][]*span{}
	for i := range r.spans {
		s := &r.spans[i]
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.StartUS = float64(s.start.Sub(r.t0).Nanoseconds()) / 1e3
		s.DurUS = float64(s.dur().Nanoseconds()) / 1e3
		s.SelfUS = float64((s.dur() - covered(s, children[s.ID])).Nanoseconds()) / 1e3
	}
	return r.spans
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's; children of one parent may run in parallel.
func covered(parent *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// medians returns the median duration in ms of the spans of each name,
// and the median self time of the root spans as op.residual_ms: the part
// of an op no layer span accounts for.
func medians(spans []span) map[string]float64 {
	byName := map[string][]time.Duration{}
	var residual []time.Duration
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			residual = append(residual, time.Duration(s.SelfUS*1e3))
			continue
		}
		byName[s.Name] = append(byName[s.Name], s.dur())
	}
	out := map[string]float64{"op.residual_ms": medianMS(residual)}
	for name, ds := range byName {
		out[name+"_ms"] = medianMS(ds)
	}
	return out
}

// writeSpans writes the spans with their self times to dir.
func writeSpans(dir string, cfg config, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	raw, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// overheadPct compares traced and untraced op latencies of one run.
func overheadPct(traced, untraced []time.Duration) float64 {
	u := medianMS(untraced)
	if u == 0 {
		return 0
	}
	return 100 * (medianMS(traced) - u) / u
}
