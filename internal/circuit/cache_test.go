package circuit

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func established(id ID, dst topology.Node, ch topology.LinkID) *Entry {
	return &Entry{ID: id, Dest: dst, Channel: ch, State: Established}
}

// newCache returns a cache configured by Reset.
func newCache(t *testing.T, capacity int, policy string, seed uint64) *Cache {
	t.Helper()
	c := new(Cache)
	if err := c.Reset(capacity, policy, seed); err != nil {
		t.Fatal(err)
	}
	return c
}

// filled returns a cache under policy holding es.
func filled(t *testing.T, policy string, seed uint64, es ...*Entry) *Cache {
	t.Helper()
	c := newCache(t, len(es), policy, seed)
	for _, e := range es {
		if err := c.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestFig5CircuitCache is the structural reproduction of Figure 5: every
// register field exists with the documented semantics.
func TestFig5CircuitCache(t *testing.T) {
	e := &Entry{
		ID:            1,
		Dest:          7,
		Switch:        2,
		Channel:       13,
		InitialSwitch: 1,
		State:         Setting,
	}
	if e.AckReturned() {
		t.Fatal("Ack Returned set while probing")
	}
	if e.Evictable() {
		t.Fatal("entry evictable while setting up")
	}
	e.State = Established
	if !e.AckReturned() || !e.Evictable() {
		t.Fatal("established entry should have ack and be evictable")
	}
	e.InUse = true
	if e.Evictable() {
		t.Fatal("In-use circuit must not be released (paper: In-use bit)")
	}
	e.InUse = false
	e.ReleaseRequested = true
	if e.Evictable() {
		t.Fatal("release-requested circuit already promised elsewhere")
	}
	// Replace-field accounting.
	e.Touch(100)
	e.Touch(200)
	if e.LastUse != 200 || e.UseCount != 2 {
		t.Fatalf("replace accounting: last=%d count=%d", e.LastUse, e.UseCount)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Setting: "setting", Established: "established", Releasing: "releasing"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if State(99).String() != "state(99)" {
		t.Error("unknown state string wrong")
	}
}

func TestLRUVictim(t *testing.T) {
	a, b, c := established(1, 1, 1), established(2, 2, 2), established(3, 3, 3)
	a.LastUse, b.LastUse, c.LastUse = 30, 10, 20
	if got := filled(t, "lru", 0, a, b, c).AnyVictim(); got != b {
		t.Fatalf("LRU victim = %+v, want entry 2", got)
	}
}

func TestLFUVictimWithTie(t *testing.T) {
	a, b, c := established(1, 1, 1), established(2, 2, 2), established(3, 3, 3)
	a.UseCount, b.UseCount, c.UseCount = 5, 2, 2
	b.LastUse, c.LastUse = 50, 10
	// b and c tie on count; c is older.
	if got := filled(t, "lfu", 0, a, b, c).AnyVictim(); got != c {
		t.Fatalf("LFU victim = %+v, want entry 3", got)
	}
}

func TestRandomVictimInRange(t *testing.T) {
	cands := []*Entry{established(1, 1, 1), established(2, 2, 2), established(3, 3, 3)}
	c := filled(t, "random", 5, cands...)
	seen := map[*Entry]bool{}
	for i := 0; i < 100; i++ {
		v := c.AnyVictim()
		if !slices.Contains(cands, v) {
			t.Fatalf("random victim %+v is no candidate", v)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatal("random policy never varied")
	}
}

func TestCacheInsertLookupRemove(t *testing.T) {
	c := newCache(t, 2, "lru", 0)
	if c.Capacity() != 2 || c.Len() != 0 || c.Full() {
		t.Fatal("fresh cache state wrong")
	}
	e := established(1, 5, 10)
	if err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Lookup(5, true); !ok || got != e {
		t.Fatal("lookup after insert failed")
	}
	if c.Hits != 1 {
		t.Fatalf("Hits = %d", c.Hits)
	}
	if _, ok := c.Lookup(6, true); ok {
		t.Fatal("phantom entry")
	}
	if c.Misses != 1 {
		t.Fatalf("Misses = %d", c.Misses)
	}
	if err := c.Insert(established(2, 5, 11)); err == nil {
		t.Fatal("duplicate destination accepted")
	}
	if err := c.Insert(established(3, 6, 12)); err != nil {
		t.Fatal(err)
	}
	if !c.Full() {
		t.Fatal("cache should be full")
	}
	if err := c.Insert(established(4, 7, 13)); err == nil {
		t.Fatal("insert into full cache accepted")
	}
	c.Remove(5)
	if _, ok := c.Lookup(5, false); ok {
		t.Fatal("entry survived Remove")
	}
}

func TestLookupSkipsReleaseRequested(t *testing.T) {
	c := newCache(t, 2, "lru", 0)
	e := established(1, 5, 10)
	e.ReleaseRequested = true
	if err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(5, true); ok {
		t.Fatal("release-requested entry returned as hit")
	}
	if got, ok := c.Peek(5); !ok || got != e {
		t.Fatal("Peek must still see the raw entry")
	}
}

func TestLookupDoesNotCountSettingAsHit(t *testing.T) {
	c := newCache(t, 2, "lru", 0)
	e := &Entry{ID: 1, Dest: 5, State: Setting}
	if err := c.Insert(e); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(5, true); !ok {
		t.Fatal("setting entry should be returned (caller queues behind it)")
	}
	if c.Hits != 0 {
		t.Fatalf("setting entry counted as hit: %d", c.Hits)
	}
}

func TestVictimUsingChannel(t *testing.T) {
	c := newCache(t, 4, "lru", 0)
	a := established(1, 1, 100)
	b := established(2, 2, 200)
	d := established(3, 3, 300)
	a.LastUse, b.LastUse, d.LastUse = 5, 1, 3
	for _, e := range []*Entry{a, b, d} {
		if err := c.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// Only channels 100 and 300 are wanted; LRU among {a, d} is d.
	v := c.VictimUsingChannel(func(l topology.LinkID, _ int) bool { return l == 100 || l == 300 })
	if v != d {
		t.Fatalf("victim = %+v, want entry 3", v)
	}
	if c.Evictions != 1 {
		t.Fatalf("Evictions = %d", c.Evictions)
	}
	// In-use circuits are protected even when their channel matches.
	d.InUse = true
	a.InUse = true
	v = c.VictimUsingChannel(func(l topology.LinkID, _ int) bool { return l == 100 || l == 300 })
	if v != nil {
		t.Fatalf("victim = %+v, want nil (all pinned)", v)
	}
}

func TestAnyVictim(t *testing.T) {
	c := newCache(t, 4, "lfu", 0)
	a := established(1, 1, 100)
	b := established(2, 2, 200)
	a.UseCount, b.UseCount = 9, 1
	if err := c.Insert(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(b); err != nil {
		t.Fatal(err)
	}
	if v := c.AnyVictim(); v != b {
		t.Fatalf("AnyVictim = %+v, want least-frequently-used", v)
	}
}

func TestVictimDeterminism(t *testing.T) {
	build := func() *Cache {
		c := newCache(t, 8, "lru", 0)
		for i := 0; i < 6; i++ {
			e := established(ID(i), topology.Node(i*3%7), topology.LinkID(i))
			e.LastUse = int64(i % 2)
			if err := c.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	v1 := build().AnyVictim()
	v2 := build().AnyVictim()
	if v1.ID != v2.ID {
		t.Fatalf("victim selection not deterministic: %d vs %d", v1.ID, v2.ID)
	}
}

func TestEntries(t *testing.T) {
	c := newCache(t, 4, "lru", 0)
	for i := 0; i < 3; i++ {
		if err := c.Insert(established(ID(i), topology.Node(i), topology.LinkID(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Entries()); got != 3 {
		t.Fatalf("Entries len = %d", got)
	}
}

// TestEntriesInDestinationOrder: whatever order entries arrive and leave
// in, Entries lists them by ascending destination, which is the order
// victims are gathered and snapshots written in.
func TestEntriesInDestinationOrder(t *testing.T) {
	c := newCache(t, 6, "lru", 0)
	for i, d := range []topology.Node{9, 2, 14, 5, 0, 11} {
		if err := c.Insert(established(ID(i), d, topology.LinkID(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.Remove(5)
	c.Remove(7) // absent: a no-op
	var got []topology.Node
	for _, e := range c.Entries() {
		got = append(got, e.Dest)
	}
	if want := []topology.Node{0, 2, 9, 11, 14}; !slices.Equal(got, want) {
		t.Fatalf("Entries destinations %v, want %v", got, want)
	}
	for _, d := range got {
		if e, ok := c.Peek(d); !ok || e.Dest != d {
			t.Fatalf("Peek(%d) = %+v, %v", d, e, ok)
		}
	}
}

// TestResetConfiguresAValue: a zero Cache is empty and unconfigured; Reset
// gives it a capacity and a policy and zeroes it, and a random policy draws
// from the generator Reset seeded, exactly as a generator seeded alike.
func TestResetConfiguresAValue(t *testing.T) {
	var c Cache
	if c.Capacity() != 0 || c.Len() != 0 || c.PolicyRNG() == nil {
		t.Fatalf("zero cache: capacity %d, len %d", c.Capacity(), c.Len())
	}
	if err := c.Reset(0, "lru", 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
	if err := c.Reset(2, "fifo", 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := c.Reset(2, "lfu", 0); err != nil || c.Capacity() != 2 || c.PolicyRNG() != nil {
		t.Fatalf("lfu Reset: err %v, capacity %d, RNG %v", err, c.Capacity(), c.PolicyRNG())
	}
	if err := c.Reset(3, "random", 41); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Insert(established(ID(i), topology.Node(i+1), topology.LinkID(i))); err != nil {
			t.Fatal(err)
		}
	}
	ref := sim.NewRNG(41)
	for i := 0; i < 20; i++ {
		if got, want := c.AnyVictim(), c.Entries()[ref.Intn(3)]; got != want {
			t.Fatalf("draw %d: Reset's random policy picked %d, a generator seeded alike %d", i, got.ID, want.ID)
		}
	}
	c.Hits = 5
	if err := c.Reset(1, "lru", 0); err != nil || c.Len() != 0 || c.Hits != 0 || c.Evictions != 0 {
		t.Fatalf("Reset kept state: err %v, len %d, hits %d", err, c.Len(), c.Hits)
	}
}

// TestCacheCheck holds the cache invariants: at most Capacity entries, in
// strictly ascending destination order, each a host other than the node.
func TestCacheCheck(t *testing.T) {
	build := func() *Cache {
		c := newCache(t, 3, "lru", 0)
		for i, d := range []topology.Node{1, 4, 6} {
			if err := c.Insert(established(ID(i), d, topology.LinkID(i))); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	if err := build().Check(0, 8); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(c *Cache)
	}{
		{"over capacity", "capacity 3", func(c *Cache) { c.entries = append(c.entries, established(9, 7, 9)) }},
		{"repeated destination", "after", func(c *Cache) { c.entries[1].Dest = 1 }},
		{"descending destination", "after", func(c *Cache) { c.entries[2].Dest = 3 }},
		{"destination out of range", "hosts 0..7", func(c *Cache) { c.entries[2].Dest = 8 }},
		{"negative destination", "hosts 0..7", func(c *Cache) { c.entries[0].Dest = -1 }},
		{"destination is the node", "itself", func(c *Cache) { c.entries[0].Dest = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := build()
			tc.corrupt(c)
			if err := c.Check(0, 8); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestForceVictimNeverInEstablishment is the Force-phase safety contract:
// whatever mix of lifecycle states a cache holds, VictimUsingChannel must
// never hand a forced probe an entry that is still Setting, mid-release,
// in use, or already promised to another release request — only Evictable
// entries are fair game. The check is exhaustive: every combination of
// (State x InUse x ReleaseRequested) across three entries, under all three
// replacement policies.
func TestForceVictimNeverInEstablishment(t *testing.T) {
	type shape struct {
		state   State
		inUse   bool
		release bool
	}
	var shapes []shape
	for _, st := range []State{Setting, Established, Releasing} {
		for _, iu := range []bool{false, true} {
			for _, rr := range []bool{false, true} {
				shapes = append(shapes, shape{st, iu, rr})
			}
		}
	}

	policies := []string{"lru", "lfu", "random"}
	const n = 3 // entries per cache: 12^3 = 1728 state combinations
	for _, pol := range policies {
		combos := 0
		for a := range shapes {
			for b := range shapes {
				for c := range shapes {
					cache := newCache(t, n, pol, uint64(combos))
					idx := []int{a, b, c}
					evictable := 0
					for i, si := range idx {
						sh := shapes[si]
						e := &Entry{
							ID: ID(i + 1), Dest: topology.Node(i), Channel: topology.LinkID(i),
							Switch: i % 2, State: sh.state,
							InUse: sh.inUse, ReleaseRequested: sh.release,
							// Distinct replacement accounting so LRU/LFU have
							// real decisions to make.
							LastUse: int64(10 - i), UseCount: int64(i),
						}
						if e.Evictable() {
							evictable++
						}
						if err := cache.Insert(e); err != nil {
							t.Fatal(err)
						}
					}
					v := cache.VictimUsingChannel(func(topology.LinkID, int) bool { return true })
					if v == nil {
						if evictable != 0 {
							t.Fatalf("policy %s: no victim despite %d evictable entries", pol, evictable)
						}
						continue
					}
					if !v.Evictable() {
						t.Fatalf("policy %s: victim %+v is not evictable (state=%v inUse=%v release=%v)",
							pol, v, v.State, v.InUse, v.ReleaseRequested)
					}
					combos++
				}
			}
		}
		if combos == 0 {
			t.Fatalf("policy %s: exhaustive sweep never produced a victim", pol)
		}
	}
}
