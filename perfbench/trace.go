package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"lucidscript"
)

// recorder keeps the spans of one traced run in memory. A nil *recorder
// records nothing, so untraced runs pay only a nil check per call.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, to be passed to end and used
// as the parent of nested spans.
func (r *recorder) begin(name string, parent, job int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Job: job})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (for example a
// replica handler call timed inside the HTTP server).
func (r *recorder) add(name string, start, end time.Time, parent, job int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0), End: end.Sub(r.t0), Parent: parent, Job: job})
	r.mu.Unlock()
}

// find returns the index of the latest span with the name and job, -1 when
// there is none.
func (r *recorder) find(name string, job int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].Name == name && r.spans[i].Job == job {
			return i
		}
	}
	return -1
}

// selfDurations returns the self time of every closed span with the name
// (see selfTimes).
func (r *recorder) selfDurations(name string) []time.Duration {
	spans := r.snapshot()
	var out []time.Duration
	for i, d := range selfTimes(spans) {
		if spans[i].Name == name && spans[i].End >= 0 {
			out = append(out, d)
		}
	}
	return out
}

// durations returns the duration of every closed span with the name.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (r *recorder) total(name string) time.Duration {
	var t time.Duration
	for _, d := range r.durations(name) {
		t += d
	}
	return t
}

// snapshot copies the spans; indices, and so parents, stay valid.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSON writes the spans, one JSON object per line, in recording order
// (a span's parent is its line number, from 0; an end of -1 marks a span
// never closed).
func (r *recorder) writeJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// eventSums folds the program's own trace events (Options.Tracer) into
// the interpreter time the report needs: candidate executions, split into
// the execution check and verification phases. It keeps no events, so a
// long run holds constant memory where a CollectTracer would hold every
// event.
type eventSums struct {
	mu                  sync.Mutex
	execCheck, execVerf time.Duration
}

func (e *eventSums) Emit(ev lucidscript.TraceEvent) {
	if ev.Kind != lucidscript.TraceCandidateExecuted {
		return
	}
	e.mu.Lock()
	if ev.Phase == "verify" {
		e.execVerf += ev.Dur
	} else {
		e.execCheck += ev.Dur
	}
	e.mu.Unlock()
}
