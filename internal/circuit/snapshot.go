package circuit

// Snapshot support for the per-node Circuit Cache: entries serialise in
// destination order (the map has no canonical order), together with the
// hit/miss/eviction counters and the random policy's RNG state when one is
// attached. Capacity and policy kind come from configuration and are not
// serialised; restore targets a cache built identically.

import (
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// PolicyRNG returns the RNG owned by a "random" replacement policy, or nil
// for the stateless policies.
func (c *Cache) PolicyRNG() interface {
	State() uint64
	Seed(uint64)
} {
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
	snapshot.SortedMap(sc, &c.byDest, func(d *topology.Node, ep **Entry) {
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
		*d = e.Dest
	})
	return sc.Err()
}
