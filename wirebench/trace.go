package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share Req; Parent indexes the span that caused this one (-1 for a
// root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. It is owned by one
// goroutine; a nil tracer records nothing, so untraced runs pay one
// nil check per call.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: int32(parent), Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// layerTime is one span name's totals: calls, wall time and self time
// (wall time minus the part its child spans cover).
type layerTime struct {
	Calls  int   `json:"calls"`
	WallNs int64 `json:"wall_ns"`
	SelfNs int64 `json:"self_ns"`
}

// selfTimes aggregates spans by name. Children of one span are
// sequential (every tracer is single-goroutine), so their durations
// sum without overlap.
func selfTimes(spans []span) map[string]*layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.Calls++
		lt.WallNs += s.End - s.Start
		lt.SelfNs += s.End - s.Start - child[i]
	}
	return out
}

// mergeSpans concatenates the spans of several tracers that share an
// epoch, re-basing parent indices.
func mergeSpans(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		base := int32(len(out))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
