package engine

import (
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestShardedEventsMatchesGlobalOrder schedules a pseudo-random workload and
// checks the store fires it in exactly the (At, Seq) order of a sorted
// reference list, whatever shard argument the events were scheduled with.
func TestShardedEventsMatchesGlobalOrder(t *testing.T) {
	type fired struct{ at, seq int64 }
	s := NewShardedEvents(4)
	r := sim.NewRNG(42)
	var got, want []fired
	now := int64(0)
	for now < 400 || s.Len() > 0 {
		if now < 400 {
			for i := 0; i < 5; i++ {
				at := now + 1 + int64(r.Intn(17))
				seq := s.seq + 1
				want = append(want, fired{at, seq})
				if i%2 == 0 {
					s.Schedule(at, func(int64) { got = append(got, fired{at, seq}) })
				} else {
					s.ScheduleKind(r.Intn(64), at, 1, [NumEventArgs]int64{at, seq})
				}
			}
		}
		for _, ev := range s.PopDue(now) {
			if ev.At > now {
				t.Fatalf("event for cycle %d popped at cycle %d", ev.At, now)
			}
			if ev.Kind != 0 {
				got = append(got, fired{ev.Args[0], ev.Args[1]})
			} else {
				ev.Fn(now)
			}
		}
		now++
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestShardedEventsScheduleDuringFire checks events scheduled from a firing
// handler (always strictly in the future) are deferred to a later PopDue.
func TestShardedEventsScheduleDuringFire(t *testing.T) {
	s := NewShardedEvents(0)
	var order []int
	s.Schedule(1, func(now int64) {
		order = append(order, 1)
		s.Schedule(now+1, func(int64) { order = append(order, 2) })
	})
	for now := int64(1); now <= 2; now++ {
		for _, ev := range s.PopDue(now) {
			ev.Fn(now)
		}
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("fire order = %v, want [1 2]", order)
	}
}
