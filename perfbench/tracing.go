package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a layer call the benchmark made.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // 0 = none
	Layer   string  `json:"layer"`  // one of selfLayers
	Name    string  `json:"name"`
	Request string  `json:"request,omitempty"` // request / job id the span belongs to
	StartS  float64 `json:"start_s"`           // seconds since the tracer started
	EndS    float64 `json:"end_s"`
}

// tracer keeps spans in memory; write dumps them at the end of a run. A
// nil *tracer records nothing, so untraced runs pay one nil check per
// layer call.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(parent int, layer, name, request string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name, Request: request,
		StartS: start.Sub(t.base).Seconds(), EndS: end.Sub(t.base).Seconds(),
	})
	return id
}

// begin opens a span whose end is set by the returned function.
func (t *tracer) begin(parent int, layer, name, request string) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = t.add(parent, layer, name, request, start, start)
	return id, func() {
		now := time.Now()
		t.mu.Lock()
		t.spans[id-1].EndS = now.Sub(t.base).Seconds()
		t.mu.Unlock()
	}
}

// spanEnd is span id's end, in seconds since the tracer started.
func (t *tracer) spanEnd(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].EndS
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	out := map[string]float64{}
	for _, l := range selfLayers {
		out[l] = 0
	}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.StartS, s.EndS})
		}
	}
	for _, s := range t.spans {
		self := (s.EndS - s.StartS) - covered(children[s.ID], s.StartS, s.EndS)
		out[s.Layer] += max(self, 0)
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]float64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curS, curE := 0.0, iv[0][0], iv[0][1]
	flush := func() {
		s, e := max(curS, lo), min(curE, hi)
		if e > s {
			total += e - s
		}
	}
	for _, x := range iv[1:] {
		if x[0] > curE {
			flush()
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	flush()
	return total
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
