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

// Event is one scheduled fabric action (circuit delivery, window ack, ...),
// described by a nonzero Kind and its Args; the owner dispatches on them.
// The descriptor is plain data, so every pending event survives a snapshot.
type Event struct {
	At   int64
	Seq  int64
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
	// ScheduleKind reuses the objects instead of allocating per event.
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

// Pending returns the pending events in no particular order. Callers must
// neither retain nor modify them.
func (s *Events) Pending() []*Event { return s.heap }

// ScheduleKind queues an event at cycle `at`; the owner executes it by
// dispatching on (Kind, Args), and kind must be nonzero. The caller
// guarantees at is strictly in the future, so handlers may schedule freely
// while the current cycle's due list is being executed.
//
// Compatibility: the leading shard argument is ignored. It is kept so the
// frozen benchmark module compiles; internal callers pass 0.
func (s *Events) ScheduleKind(_ int, at int64, kind uint8, args [NumEventArgs]int64) {
	if kind == 0 {
		panic("engine: ScheduleKind requires a nonzero kind")
	}
	s.seq++
	var e *Event
	if n := len(s.pool); n > 0 {
		e = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	} else {
		e = &Event{}
	}
	e.At, e.Seq, e.Kind, e.Args = at, s.seq, kind, args
	s.heap.push(e)
}

// PopDue removes and returns every event with At <= now, ordered by
// (At, Seq). The returned slice is reused by the next call; callers must not
// retain it. Events scheduled while iterating the result land in the heap
// and are not observed until a later PopDue.
func (s *Events) PopDue(now int64) []*Event {
	// Reclaim the events handed out by the previous call (callers must not
	// retain them) before reusing the scratch slice.
	s.pool = append(s.pool, s.due...)
	s.due = s.due[:0]
	for len(s.heap) > 0 && s.heap[0].At <= now {
		s.due = append(s.due, s.heap.pop())
	}
	return s.due
}

// State encodes or decodes every pending event plus the global sequence
// counter. Events are encoded in (At, Seq) order — the deterministic pop
// order — so the encoding is independent of heap layout. Decoding replaces
// the pending-event set with the encoded one and rejects a zero kind, which
// no scheduled event carries.
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
