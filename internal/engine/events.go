// Package engine holds the fabric's scheduled-event store: one typed
// min-heap ordered by (At, Seq), popped serially at the head of every cycle
// (see core.Fabric.Cycle).
package engine

import (
	"slices"
	"sort"

	"repro/internal/snapshot"
)

// NumEventArgs is the argument capacity of a descriptor event — wide enough
// for the largest fabric event payload (a full flit.Message).
const NumEventArgs = 5

// Event is one scheduled fabric action (circuit delivery, window ack, ...).
// An event is either opaque (Kind == 0, behaviour in Fn) or descriptive
// (Kind != 0, behaviour dispatched by the owner from Kind and Args). Only
// descriptive events survive a snapshot: a closure cannot be serialised, so
// Encode refuses opaque pending events.
type Event struct {
	At  int64
	Seq int64
	Fn  func(now int64)

	Kind uint8
	Args [NumEventArgs]int64
}

// eventBefore orders events by (At, Seq): the pop order.
func eventBefore(a, b *Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

// eventHeap is a typed min-heap ordered by (At, Seq). It replaces the old
// container/heap implementation and its interface{} boxing.
type eventHeap []*Event

func (h *eventHeap) push(e *Event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

func (h *eventHeap) pop() *Event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventBefore(q[l], q[small]) {
			small = l
		}
		if r < n && eventBefore(q[r], q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
	return top
}

// Events is the fabric's scheduled-event store. Scheduling stamps a global
// sequence number; PopDue returns the due events in (At, Seq) order.
type Events struct {
	heap eventHeap
	seq  int64
	due  []*Event // scratch reused across cycles
	// pool recycles Event objects: PopDue's contract forbids callers from
	// retaining the returned events, so the next call reclaims them and
	// Schedule reuses the objects instead of allocating per event.
	pool []*Event
}

// NewShardedEvents creates an empty store.
//
// Compatibility: the store is one heap and the shard count is ignored. The
// name and the parameter are kept so the frozen benchmark module compiles;
// internal callers pass 0.
func NewShardedEvents(_ int) *Events { return &Events{} }

// Len returns the number of pending events.
func (s *Events) Len() int { return len(s.heap) }

// push stamps the next sequence number on a recycled (or new) event and
// queues it.
func (s *Events) push(at int64, fn func(now int64), kind uint8, args [NumEventArgs]int64) {
	s.seq++
	var e *Event
	if n := len(s.pool); n > 0 {
		e = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	} else {
		e = &Event{}
	}
	e.At, e.Seq, e.Fn = at, s.seq, fn
	e.Kind, e.Args = kind, args
	s.heap.push(e)
}

// Schedule queues fn to run at cycle `at`. The caller guarantees at is
// strictly in the future, so handlers may schedule freely while the current
// cycle's due list is being executed.
func (s *Events) Schedule(at int64, fn func(now int64)) {
	s.push(at, fn, 0, [NumEventArgs]int64{})
}

// ScheduleKind queues a descriptive event at cycle `at`. The owner executes
// it by dispatching on (Kind, Args) — kind must be nonzero. Unlike closure
// events these serialise, so every steady-state fabric event is scheduled
// through here.
//
// Compatibility: the leading shard argument is ignored. It is kept so the
// frozen benchmark module compiles; internal callers pass 0.
func (s *Events) ScheduleKind(_ int, at int64, kind uint8, args [NumEventArgs]int64) {
	if kind == 0 {
		panic("engine: ScheduleKind requires a nonzero kind")
	}
	s.push(at, nil, kind, args)
}

// NextAt returns the cycle of the earliest pending event, or ok=false when
// the store is empty. The fabric's quiescence fast-forward uses it to bound
// how far the clock may jump.
func (s *Events) NextAt() (int64, bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].At, true
}

// PopDue removes and returns every event with At <= now, ordered by
// (At, Seq). The returned slice is reused by the next call; callers must not
// retain it. Events scheduled while iterating the result land in the heap
// and are not observed until a later PopDue.
func (s *Events) PopDue(now int64) []*Event {
	// Reclaim the events handed out by the previous call (callers must not
	// retain them) before reusing the scratch slice.
	for _, e := range s.due {
		e.Fn = nil
		s.pool = append(s.pool, e)
	}
	s.due = s.due[:0]
	for len(s.heap) > 0 && s.heap[0].At <= now {
		s.due = append(s.due, s.heap.pop())
	}
	return s.due
}

// State encodes or decodes every pending event plus the global sequence
// counter. Events are encoded in (At, Seq) order — the deterministic pop
// order — so the encoding is independent of heap layout. Encoding returns
// an error if any pending event is opaque (Kind == 0): such an event holds
// a closure the snapshot cannot represent. Decoding replaces the
// pending-event set with the encoded one.
func (s *Events) State(c *snapshot.Codec) error {
	var evs []*Event
	if !c.Decoding() {
		evs = slices.Clone(s.heap)
		sort.Slice(evs, func(i, j int) bool { return eventBefore(evs[i], evs[j]) })
	}
	snapshot.I64(c, &s.seq)
	snapshot.Slice(c, &evs, func(ep **Event) {
		if c.Decoding() {
			*ep = &Event{}
		}
		e := *ep
		if e.Kind == 0 && !c.Decoding() {
			c.Failf("engine: pending opaque event at cycle %d (seq %d) cannot be snapshotted", e.At, e.Seq)
			return
		}
		snapshot.I64(c, &e.At)
		snapshot.I64(c, &e.Seq)
		snapshot.U8(c, &e.Kind)
		for j := range e.Args {
			snapshot.I64(c, &e.Args[j])
		}
		if e.Kind == 0 {
			c.Failf("engine: encoded event at cycle %d (seq %d) has zero kind", e.At, e.Seq)
		}
	})
	if c.Decoding() && c.Err() == nil {
		s.heap = nil
		s.due = s.due[:0]
		s.pool = s.pool[:0]
		for _, e := range evs {
			s.heap.push(e)
		}
	}
	return c.Err()
}
