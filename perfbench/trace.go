package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// requestIDHeader carries the client's request ID to the handler wrapper,
// which stamps it on the server-side span.
const requestIDHeader = "X-Request-ID"

// Span is one timed interval at a layer boundary. Spans of one request
// share ID; Parent names the enclosing span of the same request ("" for
// the root). Reported spans are synthesised from durations the program
// returns (core.Result.Timing phases, elapsed_us), not measured here.
type Span struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Reported bool   `json:"reported,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced run pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to the tracer's monotonic offset.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

func (t *tracer) add(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// span records a measured interval.
func (t *tracer) span(id, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(Span{ID: id, Name: name, Parent: parent, Start: t.at(start), End: t.at(end)})
}

// reported records program-reported durations as consecutive children of
// parent starting at start, in the given order.
func (t *tracer) reported(id, parent string, start time.Time, names []string, durs []time.Duration) {
	if t == nil {
		return
	}
	at := t.at(start)
	for i, name := range names {
		t.add(Span{ID: id, Name: name, Parent: parent, Start: at, End: at + int64(durs[i]), Reported: true})
		at += int64(durs[i])
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []Span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing span: %w", err)
		}
	}
	return w.Flush()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (the spans of the same request
// naming it as parent). Overlapping children count once, and child time
// outside the parent's interval is ignored. The result is indexed like
// spans.
func selfTimes(spans []Span) []time.Duration {
	type key struct{ id, name string }
	children := make(map[key][]int)
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.ID, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var ivs [][2]int64
		for _, c := range children[key{s.ID, s.Name}] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, iv := range ivs {
			if open && iv[0] <= curHi {
				curHi = max(curHi, iv[1])
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// selfByName sums self time per span name and counts the spans.
func selfByName(spans []Span) (map[string]time.Duration, map[string]int) {
	self := selfTimes(spans)
	sum := make(map[string]time.Duration)
	n := make(map[string]int)
	for i, s := range spans {
		sum[s.Name] += self[i]
		n[s.Name]++
	}
	return sum, n
}
