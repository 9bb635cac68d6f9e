package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// trial share Trial; Parent indexes the enclosing span (-1 at top).
type span struct {
	Name       string
	Trial      int
	Parent     int
	Start, End time.Duration // since the recorder started
}

// recorder keeps spans in memory for the whole traced run; they are
// written out once, at the end. A nil *recorder records nothing, so
// the untraced and traced paths share their code.
type recorder struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 if none
	trial int
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), open: -1} }

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Trial: r.trial, Parent: r.open, Start: time.Since(r.t0)})
	parent := r.open
	r.open = id
	fn()
	r.spans[id].End = time.Since(r.t0)
	r.open = parent
}

// sum returns the total duration of the current trial's spans named
// name, in seconds.
func (r *recorder) sum(name string) float64 {
	var d time.Duration
	for i := len(r.spans) - 1; i >= 0 && r.spans[i].Trial == r.trial; i-- {
		if r.spans[i].Name == name {
			d += r.spans[i].End - r.spans[i].Start
		}
	}
	return d.Seconds()
}

// writeChrome writes the spans as a Chrome trace-event file (load it in
// chrome://tracing or Perfetto), one track per trial.
func (r *recorder) writeChrome(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args,omitempty"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Trial,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"parent": s.Parent},
		}
	}
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "otherData": meta})
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
