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

// span is one timed call the benchmark made into a layer. Spans of one
// request or pass share Trace; Parent is 0 for a root span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// spanRef is an open span; end closes it.
type spanRef struct {
	r   *recorder
	s   span
	set bool
}

// start opens a span under parent (nil for a new root, which starts a
// new trace ID).
func (r *recorder) start(name, layer string, parent *spanRef) *spanRef {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	s := span{ID: id, Trace: id, Name: name, Layer: layer}
	if parent != nil {
		s.Parent, s.Trace = parent.s.ID, parent.s.Trace
	}
	s.Start = time.Since(r.t0).Nanoseconds()
	return &spanRef{r: r, s: s, set: true}
}

func (sr *spanRef) end() {
	if sr == nil || !sr.set {
		return
	}
	sr.s.End = time.Since(sr.r.t0).Nanoseconds()
	sr.set = false
	sr.r.mu.Lock()
	sr.r.spans = append(sr.r.spans, sr.s)
	sr.r.mu.Unlock()
}

// selfTimes returns each layer's self time in seconds: a span's duration
// minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]float64 {
	kids := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += float64(s.End-s.Start-covered(s, kids[s.ID])) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's; concurrent children may overlap.
func covered(p span, children []span) int64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans and the per-layer self times as one JSON file
// and returns its path.
func (r *recorder) write(dir, workload string, seed uint64) (string, error) {
	spans := r.snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []span             `json:"spans"`
	}{workload, seed, selfTimes(spans), spans}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	b, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
