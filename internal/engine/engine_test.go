package engine

import (
	"sort"
	"testing"

	"repro/internal/sim"
)

// TestShardedEventsMatchesGlobalOrder schedules a pseudo-random workload and
// checks the store pops it in exactly the (At, Seq) order of a sorted
// reference list, whatever shard argument or kind the events carry.
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
				s.ScheduleKind(r.Intn(64), at, uint8(1+i%2), [NumEventArgs]int64{at, seq})
			}
		}
		for _, ev := range s.PopDue(now) {
			if ev.At > now {
				t.Fatalf("event for cycle %d popped at cycle %d", ev.At, now)
			}
			got = append(got, fired{ev.Args[0], ev.Args[1]})
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

// TestShardedEventsScheduleDuringFire checks events scheduled while a due
// list is being executed (always strictly in the future) are deferred to a
// later PopDue.
func TestShardedEventsScheduleDuringFire(t *testing.T) {
	s := NewShardedEvents(0)
	var order []int64
	s.ScheduleKind(0, 1, 1, [NumEventArgs]int64{1})
	for now := int64(1); now <= 2; now++ {
		for _, ev := range s.PopDue(now) {
			order = append(order, ev.Args[0])
			if ev.Kind == 1 {
				s.ScheduleKind(0, now+1, 2, [NumEventArgs]int64{2})
			}
		}
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("fire order = %v, want [1 2]", order)
	}
}
