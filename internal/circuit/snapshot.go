package circuit

// Snapshot support for the per-node Circuit Cache: entries serialise in
// destination order, the order the cache keeps them in, together with the
// hit/miss/eviction counters and the random policy's RNG state when one is
// attached. Capacity and policy kind come from configuration and are not
// serialised; restore targets a cache built identically. Check holds the
// decoded entries (the fabric's decoder runs it).

import (
	"fmt"

	"repro/internal/snapshot"
	"repro/internal/topology"
)

// PolicyRNG returns the RNG owned by a "random" replacement policy, or nil
// for the stateless policies.
func (c *Cache) PolicyRNG() interface {
	State() uint64
	Seed(uint64)
} {
	if c.policy == nil {
		return &c.rng
	}
	if r, ok := c.policy.(*Random); ok {
		return r.RNG
	}
	return nil
}

// State encodes or decodes the cache's entries and counters. Decoding
// requires a cache built with the same capacity and policy.
func (c *Cache) State(sc *snapshot.Codec) error {
	snapshot.I64(sc, &c.Hits)
	snapshot.I64(sc, &c.Misses)
	snapshot.I64(sc, &c.Evictions)
	rng := c.PolicyRNG()
	hasRNG := rng != nil
	sc.Bool(&hasRNG)
	if hasRNG != (rng != nil) {
		return sc.Failf("circuit: snapshot policy RNG=%v, cache policy RNG=%v (policy mismatch)", hasRNG, rng != nil)
	}
	if hasRNG {
		st := rng.State()
		sc.U64(&st)
		rng.Seed(st)
	}
	snapshot.Slice(sc, &c.entries, func(ep **Entry) {
		if sc.Decoding() {
			*ep = &Entry{}
		}
		e := *ep
		snapshot.I64(sc, &e.ID)
		snapshot.I64(sc, &e.Dest)
		snapshot.I64(sc, &e.Switch)
		snapshot.I64(sc, &e.Channel)
		snapshot.I64(sc, &e.InitialSwitch)
		snapshot.U8(sc, &e.State)
		sc.Bool(&e.InUse)
		sc.Bool(&e.ReleaseRequested)
		snapshot.I64(sc, &e.LastUse)
		snapshot.I64(sc, &e.UseCount)
		snapshot.I64(sc, &e.BufFlits)
	})
	return sc.Err()
}

// Check returns an error naming the first broken invariant of node self's
// cache in a fabric whose hosts are 0..hosts-1, or nil: it holds at most
// Capacity entries, in strictly ascending destination order, each one a
// host other than self (circuits join hosts, and a node never opens one to
// itself).
func (c *Cache) Check(self topology.Node, hosts int) error {
	if len(c.entries) > c.capacity {
		return fmt.Errorf("circuit: node %d caches %d entries, capacity %d", self, len(c.entries), c.capacity)
	}
	for i, e := range c.entries {
		if i > 0 && e.Dest <= c.entries[i-1].Dest {
			return fmt.Errorf("circuit: node %d caches destination %d after %d", self, e.Dest, c.entries[i-1].Dest)
		}
		if e.Dest < 0 || int(e.Dest) >= hosts {
			return fmt.Errorf("circuit: node %d caches destination %d (hosts 0..%d)", self, e.Dest, hosts-1)
		}
		if e.Dest == self {
			return fmt.Errorf("circuit: node %d caches destination %d, itself", self, e.Dest)
		}
	}
	return nil
}
