package traffic

// Snapshot support for the traffic generator: the RNG stream position plus,
// when the pattern is a Locality wrapper, the per-node working sets and
// redraw counters. Patterns and length distributions themselves are
// configuration, rebuilt by the caller; only the evolving state serialises.

import (
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// State encodes or decodes the generator's mutable state. Decoding
// requires a generator built with the same pattern, length distribution,
// load and node count.
func (g *Generator) State(c *snapshot.Codec) error {
	st := g.rng.State()
	c.U64(&st)
	g.rng.Seed(st)
	l, ok := g.Pattern.(*Locality)
	if !ok {
		return c.Err()
	}
	// The working sets. A nil set (never drawn) and an empty one behave
	// differently in Pick, so nil-ness is preserved.
	for i := range l.sets {
		drawn := l.sets[i] != nil
		c.Bool(&drawn)
		if !drawn {
			l.sets[i] = nil
			continue
		}
		if c.Decoding() {
			l.sets[i] = []topology.Node{}
		}
		snapshot.Slice(c, &l.sets[i], func(d *topology.Node) { snapshot.I64(c, d) })
		if n := len(l.sets[i]); n > len(l.count)+1 {
			return c.Failf("traffic: snapshot working set of %d entries exceeds node count", n)
		}
	}
	for i := range l.count {
		snapshot.I64(c, &l.count[i])
	}
	return c.Err()
}
