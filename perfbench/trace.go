package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"ipregel/internal/core"
)

// span is one timed interval recorded by the benchmark around a call
// into the system. Spans of one query or job share Run; Parent links a
// span to the span that caused it (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branch.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	next   int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span id, so children can name a parent that has not
// ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores the span id (from t.id) that ran from start to end and
// returns it.
func (t *tracer) record(id, parent int64, run, name string, start, end time.Time) span {
	if t == nil {
		return span{}
	}
	s := span{ID: id, Parent: parent, Run: run, Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin)}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return s
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTime is parent's duration minus the part of it that the union of
// the children's intervals covers; overlapping children are counted once
// and any part of a child outside the parent is ignored.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// stepObserver is the benchmark's core.Observer for one batch query: it
// opens a span at OnSuperstepStart and closes it at OnSuperstepEnd under
// the RunContext span, and keeps the StepStats the per-layer metrics
// need. The engine calls it from one goroutine only.
type stepObserver struct {
	t      *tracer
	run    string
	parent int64
	id     int64
	start  time.Time
	steps  []core.StepStats
}

func (o *stepObserver) OnSuperstepStart(int) {
	o.id = o.t.id()
	o.start = time.Now()
}

func (o *stepObserver) OnSuperstepEnd(_ int, s core.StepStats) {
	o.t.record(o.id, o.parent, o.run, "superstep", o.start, time.Now())
	o.steps = append(o.steps, s)
}

func (o *stepObserver) OnAbort(int, string, error)  {}
func (o *stepObserver) OnRunEnd(core.Report, error) {}
