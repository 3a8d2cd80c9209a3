package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer; no
// file outside benchmark/ is instrumented. One span per call: name, start,
// end, and the span that was open when it began (its cause). Spans of one
// simulated cycle share that cycle number as their identifier.

type spanID uint8

const (
	spTick spanID = iota
	spSend
	spStep
	spRecord
	spDrain
	spSummarize
	spSnapshotEncode
	spSnapshotRestore
	numSpans
)

var spanNames = [numSpans]string{
	spTick:            "traffic.tick",
	spSend:            "protocol.send",
	spStep:            "core.step",
	spRecord:          "stats.record",
	spDrain:           "wave.drain",
	spSummarize:       "stats.summarize",
	spSnapshotEncode:  "snapshot.encode",
	spSnapshotRestore: "snapshot.restore",
}

// spanAgg is the per-name aggregate kept for every span; child is the part
// of total covered by spans that began while this one was open.
type spanAgg struct {
	count, total, child int64 // total and child in ns
}

// self is the layer's own time: the span's duration minus the part of that
// interval its child spans cover.
func (a spanAgg) self() int64 { return a.total - a.child }

type openSpan struct {
	id           spanID
	start, child int64
	rec          int // index into tracer.full, -1 when not kept
}

// spanRec is one span kept in full for the Chrome trace.
type spanRec struct {
	id         spanID
	start, end int64 // ns since the tracer's base
	parent     int   // index of the causing span, -1 for a root
	cycle      int64
}

// tracer keeps every span as an aggregate and the spans of sampled cycles in
// full, all in memory; writeChrome dumps the full ones when the run ends.
type tracer struct {
	clock func() int64 // ns, monotonic
	agg   [numSpans]spanAgg
	stack []openSpan
	// sampling turns on full recording of every sampleEvery-th cycle; keep
	// says the current cycle is one of them.
	sampling bool
	keep     bool
	cycle    int64
	full     []spanRec
}

// sampleEvery is the cycle stride of fully recorded cycles; maxFullSpans
// bounds the memory they may take.
const (
	sampleEvery  = 1000
	maxFullSpans = 200_000
)

func newTracer() *tracer {
	base := time.Now()
	return &tracer{
		clock: func() int64 { return int64(time.Since(base)) },
		stack: make([]openSpan, 0, 8),
	}
}

// startCycle marks the cycle the following spans belong to and decides
// whether they are kept in full. Call with no span open.
func (t *tracer) startCycle(cycle int64) {
	t.cycle = cycle
	t.keep = t.sampling && cycle%sampleEvery == 0 && len(t.full) < maxFullSpans
}

// now reads the tracer's clock.
func (t *tracer) now() int64 { return t.clock() }

func (t *tracer) begin(id spanID) { t.beginAt(id, t.clock()) }

func (t *tracer) end() { t.endAt(t.clock()) }

// beginAt and endAt open and close a span at an instant the caller already
// read, so adjacent spans share one clock read (~45 ns each on the reference
// host, which matters against a 2 µs cycle).
func (t *tracer) beginAt(id spanID, now int64) {
	o := openSpan{id: id, start: now, rec: -1}
	if t.keep {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].rec
		}
		o.rec = len(t.full)
		t.full = append(t.full, spanRec{id: id, start: now, parent: parent, cycle: t.cycle})
	}
	t.stack = append(t.stack, o)
}

func (t *tracer) endAt(now int64) {
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := now - o.start
	a := &t.agg[o.id]
	a.count++
	a.total += d
	a.child += o.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if o.rec >= 0 {
		t.full[o.rec].end = now
	}
}

// writeChrome writes the fully kept spans in the Chrome trace-event format
// (open in chrome://tracing or https://ui.perfetto.dev).
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.full))
	for i, r := range t.full {
		args := map[string]any{"span": i, "cycle": r.cycle}
		if r.parent >= 0 {
			args["cause"] = r.parent
		}
		events = append(events, event{
			Name: spanNames[r.id], Ph: "X",
			Ts: float64(r.start) / 1e3, Dur: float64(r.end-r.start) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	raw, err := json.Marshal(map[string]any{
		"displayTimeUnit": "ns",
		"otherData":       map[string]string{"workload": workload, "sampling": fmt.Sprintf("1 in %d cycles", sampleEvery)},
		"traceEvents":     events,
	})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
