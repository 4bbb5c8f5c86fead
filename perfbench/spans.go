package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function.
type span struct {
	Name string `json:"name"`
	// Start and End are offsets from the recorder's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Parent indexes the enclosing span in the recorder, -1 for a root.
	Parent int `json:"parent"`
	// Op identifies the benchmark operation the span belongs to.
	Op int64 `json:"op"`
	// Key is the config fingerprint the call worked on, when known. Spans
	// recorded inside the service (cache wrappers) cannot see their
	// request, so they are tied to it afterwards by key and time.
	Key string `json:"key,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the length of a traced phase. A nil
// recorder records nothing, so untraced code paths call it unguarded.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (r *recorder) begin(name string, parent int, op int64, key string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op, Key: key})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add appends a span whose interval was measured elsewhere.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// now is the offset of the current instant from the recorder's creation.
func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as a JSON array.
func (r *recorder) write(path string) error {
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// covered returns how much of parent's interval the children cover. The
// children may overlap each other (the two execution modes of one point
// run at once), so their union is measured, clipped to the parent.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// selfTimes returns each span's duration minus the part of it that its
// child spans (linked by Parent) cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, kids[i])
	}
	return self
}

// layerTotal aggregates the spans of one name.
type layerTotal struct {
	Calls int
	Total time.Duration // summed duration
	Self  time.Duration // summed self time
}

// byName sums durations and self times per span name.
func byName(spans []span, self []time.Duration) map[string]*layerTotal {
	out := make(map[string]*layerTotal)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &layerTotal{}
			out[s.Name] = t
		}
		t.Calls++
		t.Total += s.dur()
		t.Self += self[i]
	}
	return out
}

// meanMs is the mean duration of a layer's calls in milliseconds.
func (t *layerTotal) meanMs() float64 {
	if t == nil || t.Calls == 0 {
		return 0
	}
	return float64(t.Total) / float64(t.Calls) / 1e6
}
