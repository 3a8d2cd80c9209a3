package traffic

// Snapshot support for the traffic generator: the RNG stream position, the
// calendar of next starts plus, when the pattern is a Locality wrapper, the
// per-node working sets and redraw counters. Patterns and length
// distributions themselves are configuration, rebuilt by the caller; only
// the evolving state serialises.

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
	if err := g.calendarState(c); err != nil {
		return err
	}
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

// calendarState walks whether the calendar has been drawn and, if so, each
// host's next start as ticks from now, in host order. The decoder rebuilds
// the wheel at tick 0; the order of its lists is never observed.
func (g *Generator) calendarState(c *snapshot.Codec) error {
	cal := &g.cal
	drawn := cal.due != nil
	c.Bool(&drawn)
	switch {
	case !drawn:
		cal.due = nil
		return c.Err()
	case c.Decoding() && g.gaps == nil:
		return c.Failf("traffic: snapshot has a start calendar, but load %g starts no message", g.Load)
	case c.Decoding():
		cal.init(g.nodes)
	}
	c.Fixed(g.nodes, "traffic hosts", func(h int) {
		in := cal.due[h] - cal.now
		snapshot.I64(c, &in)
		if c.Decoding() && in < 0 {
			c.Failf("traffic: snapshot host %d starts %d ticks ago", h, -in)
		} else if c.Decoding() {
			cal.put(int32(h), in)
		}
	})
	return c.Err()
}
