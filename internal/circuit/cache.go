// Package circuit implements the Circuit Cache registers of Figure 5: the
// per-node table, kept in the network interface, that records every physical
// circuit starting at the node, plus the replacement algorithms the CLRP
// protocol uses to pick a victim circuit when channels run out.
//
// A cache's entries are a slice sorted by destination, so lookups are a
// binary search, victim candidates are gathered in destination order
// without sorting, and a snapshot writes them as they stand. A Cache is a
// plain value whose zero value is empty: a fabric keeps one slice of them
// and configures each on first use (Reset), so building a fabric allocates
// nothing per node.
package circuit

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// ID identifies one established (or in-setup) circuit network-wide.
type ID int64

// State is the lifecycle of a circuit cache entry.
type State uint8

const (
	// Setting means a probe is searching for a path.
	Setting State = iota
	// Established means the acknowledgment returned and the circuit is
	// usable (Ack Returned field of Figure 5).
	Established
	// Releasing means teardown has been initiated; the entry disappears when
	// teardown completes.
	Releasing
)

func (s State) String() string {
	switch s {
	case Setting:
		return "setting"
	case Established:
		return "established"
	case Releasing:
		return "releasing"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Entry mirrors the register set of Figure 5, one per circuit starting at
// this node, plus the simulator bookkeeping needed to drive it.
type Entry struct {
	// ID is the simulator-wide circuit identity.
	ID ID
	// Dest is the destination node of the circuit (Dest field).
	Dest topology.Node
	// Switch is the wave switch S_i the circuit uses — the same S_i at every
	// intermediate node (Switch field).
	Switch int
	// Channel is the output channel used at the source node (Channel field).
	Channel topology.LinkID
	// InitialSwitch records the first switch tried, to avoid repeating the
	// search (Initial Switch field).
	InitialSwitch int
	// State covers the Ack Returned field: Established iff the ack returned.
	State State
	// InUse is set while a message is in transit on the circuit; it prevents
	// release until transmission finishes (In-use field). It is reset when
	// the source receives the acknowledgment for the last fragment.
	InUse bool
	// ReleaseRequested is set when a remote node asked for this circuit to be
	// released (CLRP Force phase); the source tears it down as soon as InUse
	// clears, and new messages treat the entry as a miss.
	ReleaseRequested bool

	// Replace field accounting (its meaning depends on the algorithm):
	// LastUse is the cycle of the most recent use (LRU); UseCount is the
	// total number of messages carried (LFU).
	LastUse  int64
	UseCount int64

	// BufFlits is the size of the message buffers allocated at both ends of
	// the circuit (paper section 2: "message buffers can be allocated at
	// both ends when the circuit is established"). CLRP guesses a size at
	// establishment and must re-allocate for longer messages; CARP sizes
	// them for the longest message of the set upfront.
	BufFlits int
}

// AckReturned reports the Figure 5 Ack Returned bit.
func (e *Entry) AckReturned() bool { return e.State == Established }

// Evictable reports whether the replacement algorithm may choose this entry:
// it must be fully established and not pinned by a transmission or an earlier
// release request.
func (e *Entry) Evictable() bool {
	return e.State == Established && !e.InUse && !e.ReleaseRequested
}

// Touch records a use of the circuit for replacement accounting.
func (e *Entry) Touch(now int64) {
	e.LastUse = now
	e.UseCount++
}

// Policy selects a victim among candidate entries. Implementations must be
// deterministic given their own state (Random owns a seeded RNG).
type Policy interface {
	// Name identifies the policy ("lru", "lfu", "random").
	Name() string
	// Victim returns the index of the entry to evict; cands is non-empty.
	Victim(cands []*Entry) int
}

// NewPolicy builds a replacement policy by name. rng is required by "random"
// and ignored otherwise.
func NewPolicy(name string, rng *sim.RNG) (Policy, error) {
	switch name {
	case "lru":
		return LRU{}, nil
	case "lfu":
		return LFU{}, nil
	case "random":
		if rng == nil {
			return nil, fmt.Errorf("circuit: random policy needs an RNG")
		}
		return &Random{RNG: rng}, nil
	default:
		return nil, fmt.Errorf("circuit: unknown replacement policy %q (want lru, lfu or random)", name)
	}
}

// LRU evicts the least recently used circuit.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

// Victim implements Policy.
func (LRU) Victim(cands []*Entry) int {
	best := 0
	for i, e := range cands[1:] {
		if e.LastUse < cands[best].LastUse {
			best = i + 1
		}
	}
	return best
}

// LFU evicts the least frequently used circuit, breaking ties by LRU.
type LFU struct{}

// Name implements Policy.
func (LFU) Name() string { return "lfu" }

// Victim implements Policy.
func (LFU) Victim(cands []*Entry) int {
	best := 0
	for i, e := range cands[1:] {
		b := cands[best]
		if e.UseCount < b.UseCount || (e.UseCount == b.UseCount && e.LastUse < b.LastUse) {
			best = i + 1
		}
	}
	return best
}

// Random evicts a uniformly random candidate.
type Random struct{ RNG *sim.RNG }

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Victim implements Policy.
func (r *Random) Victim(cands []*Entry) int { return r.RNG.Intn(len(cands)) }

// Cache is one node's Circuit Cache: at most Capacity circuits keyed by
// destination (the paper stores one circuit per destination pair), held in
// a slice sorted by destination and found by binary search. The zero value
// is an unconfigured, empty cache; Reset (or NewCache) sets its capacity
// and policy.
type Cache struct {
	capacity int
	// policy picks victims; nil means the random policy over rng, the
	// generator a cache held by value owns in place (Reset).
	policy  Policy
	rng     sim.RNG
	entries []*Entry // ascending Dest

	// Reusable buffer of VictimUsingChannel: victim selection runs once per
	// blocked Force probe and must not allocate.
	cands []*Entry

	// Counters for the E4 experiments.
	Hits      int64
	Misses    int64
	Evictions int64
}

// NewCache returns a cache holding up to capacity circuits.
func NewCache(capacity int, policy Policy) *Cache {
	if capacity < 1 {
		panic(fmt.Sprintf("circuit: invalid cache capacity %d", capacity))
	}
	return &Cache{capacity: capacity, policy: policy}
}

// Reset makes c an empty cache of capacity entries under the named
// replacement policy (see NewPolicy), with zeroed counters. A "random"
// policy draws from a generator the cache holds in place, seeded with
// seed; the other policies ignore seed. A cache held by value, such as
// one of a fabric's per-node slice, is configured this way and so costs
// no allocation.
func (c *Cache) Reset(capacity int, policy string, seed uint64) error {
	if capacity < 1 {
		return fmt.Errorf("circuit: invalid cache capacity %d", capacity)
	}
	*c = Cache{capacity: capacity}
	if policy == "random" {
		c.rng.Seed(seed)
		return nil
	}
	var err error
	c.policy, err = NewPolicy(policy, nil)
	return err
}

// Capacity returns the maximum entry count (0 for an unconfigured cache).
func (c *Cache) Capacity() int { return c.capacity }

// Len returns the current entry count.
func (c *Cache) Len() int { return len(c.entries) }

// Full reports whether the cache is at capacity.
func (c *Cache) Full() bool { return len(c.entries) >= c.capacity }

// find returns the index of dst's entry, or where it would be inserted,
// and whether it is present.
func (c *Cache) find(dst topology.Node) (int, bool) {
	return slices.BinarySearchFunc(c.entries, dst, func(e *Entry, d topology.Node) int { return cmp.Compare(e.Dest, d) })
}

// Lookup returns the entry for dst, if any, counting hit/miss statistics
// only when count is true (internal bookkeeping lookups pass false). Entries
// with a pending release request are treated as misses: the circuit is
// already promised to someone else.
func (c *Cache) Lookup(dst topology.Node, count bool) (*Entry, bool) {
	e, ok := c.Peek(dst)
	if ok && e.ReleaseRequested {
		ok = false
	}
	if count {
		if ok && e.State == Established {
			c.Hits++
		} else if !ok {
			c.Misses++
		}
	}
	if !ok {
		return nil, false
	}
	return e, true
}

// Peek returns the raw entry for dst even if release-requested.
func (c *Cache) Peek(dst topology.Node) (*Entry, bool) {
	if i, ok := c.find(dst); ok {
		return c.entries[i], true
	}
	return nil, false
}

// Insert adds a new entry. It fails if an entry for the destination already
// exists or the cache is full — callers must evict first.
func (c *Cache) Insert(e *Entry) error {
	i, dup := c.find(e.Dest)
	if dup {
		return fmt.Errorf("circuit: duplicate cache entry for destination %d", e.Dest)
	}
	if c.Full() {
		return fmt.Errorf("circuit: cache full (%d entries)", c.capacity)
	}
	c.entries = slices.Insert(c.entries, i, e)
	return nil
}

// Remove deletes the entry for dst.
func (c *Cache) Remove(dst topology.Node) {
	if i, ok := c.find(dst); ok {
		c.entries = slices.Delete(c.entries, i, i+1)
	}
}

// Entries returns all entries in destination order. The slice is the
// cache's own: callers must not modify it or retain it across a mutation.
func (c *Cache) Entries() []*Entry { return c.entries }

// VictimUsingChannel picks, via the replacement policy, an evictable circuit
// whose source output channel (link + wave switch) satisfies wanted — the
// CLRP Force-phase selection ("a circuit ... such that it uses one of the
// requested channels"). Returns nil if none qualifies. Candidates are
// gathered in destination order so identical runs pick identical victims.
func (c *Cache) VictimUsingChannel(wanted func(link topology.LinkID, sw int) bool) *Entry {
	cands := c.cands[:0]
	for _, e := range c.entries {
		if e.Evictable() && wanted(e.Channel, e.Switch) {
			cands = append(cands, e)
		}
	}
	c.cands = cands
	if len(cands) == 0 {
		return nil
	}
	c.Evictions++
	if c.policy == nil {
		return cands[c.rng.Intn(len(cands))]
	}
	return cands[c.policy.Victim(cands)]
}

// AnyVictim picks an evictable circuit regardless of channel (used when the
// cache itself is full and a slot, not a channel, is needed).
func (c *Cache) AnyVictim() *Entry {
	return c.VictimUsingChannel(func(topology.LinkID, int) bool { return true })
}
