package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Every span of one op carries that op's id; a root span
// has parent 0.
type span struct {
	id     uint64
	parent uint64
	op     uint64
	name   string
	iv     interval
}

// tracer keeps spans in memory for the traced run. A nil *tracer
// records nothing, which is how untraced runs stay probe-free.
type tracer struct {
	origin time.Time

	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped int
}

// maxSpans bounds the in-memory trace; spans past it are counted, not
// kept.
const maxSpans = 1 << 20

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// childBit keeps the ids add assigns apart from op ids, which root
// spans use as their own id: a server-side span can name the client's
// root span as parent before that root is recorded.
const childBit = 1 << 62

// root records op's root span; its id is op.
func (t *tracer) root(name string, op uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.record(span{id: op, op: op, name: name, iv: interval{t.ns(start), t.ns(end)}})
}

// add records a span of op under parent and returns its id (0 on a nil
// tracer).
func (t *tracer) add(name string, op, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.nextID++
	id := childBit | t.nextID
	t.mu.Unlock()
	t.record(span{id: id, parent: parent, op: op, name: name, iv: interval{t.ns(start), t.ns(end)}})
	return id
}

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// snapshot returns the recorded spans and how many were dropped past
// the limit.
func (t *tracer) snapshot() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

// selfTimes returns, for every span, its duration minus the part its
// children cover, keyed by span id.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]interval)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s.iv)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.id] = selfTime(s.iv, kids[s.id])
	}
	return out
}

// ledgerResidues returns, for each root span named root, the self time
// in microseconds: the part of the op no layer span accounts for.
func ledgerResidues(spans []span, root string) []float64 {
	self := selfTimes(spans)
	var out []float64
	for _, s := range spans {
		if s.parent == 0 && s.name == root {
			out = append(out, float64(self[s.id])/1e3)
		}
	}
	return out
}

// writeChrome writes spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open. Each op gets its own track so nested spans stack.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	enc := json.NewEncoder(w)
	if _, err := w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n"); err != nil {
		f.Close()
		return err
	}
	for i, s := range spans {
		if i > 0 {
			if _, err := w.WriteString(","); err != nil {
				f.Close()
				return err
			}
		}
		if err := enc.Encode(event{
			Name: s.name, Ph: "X",
			Ts: float64(s.iv.start) / 1e3, Dur: float64(s.iv.end-s.iv.start) / 1e3,
			Pid: 1, Tid: s.op % 64,
			Args: map[string]any{"op": s.op, "id": s.id, "parent": s.parent},
		}); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
