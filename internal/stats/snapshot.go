package stats

// Snapshot support for the run collector. The latency series writes its
// samples in current order, and the series and both substrate tallies write
// their running float sums: a sum is an accumulated value whose rounding
// depends on addition order, so it must round-trip bit-exactly rather than
// be recomputed. A tally writes its count beside its sum and no samples.

import "repro/internal/snapshot"

// walk walks the series' samples and running sum.
func (s *Series) walk(c *snapshot.Codec) {
	snapshot.Slice(c, &s.samples, c.F64)
	if c.Decoding() {
		s.nsorted = 0
	}
	c.F64(&s.sum)
}

// walk walks the tally's running sum and count, refusing a negative count.
func (t *Tally) walk(c *snapshot.Codec) {
	c.F64(&t.sum)
	snapshot.I64(c, &t.n)
	if c.Decoding() && t.n < 0 {
		c.Failf("stats: snapshot tally of %d samples", t.n)
	}
}

// State encodes or decodes the run's counters, window bounds, latency
// series and substrate tallies.
func (r *Run) State(c *snapshot.Codec) error {
	snapshot.I64(c, &r.Warmup)
	snapshot.I64(c, &r.FlitsDelivered)
	snapshot.I64(c, &r.MsgsDelivered)
	snapshot.I64(c, &r.start)
	snapshot.I64(c, &r.end)
	r.Latency.walk(c)
	r.CircuitLatency.walk(c)
	r.WormholeLatency.walk(c)
	return c.Err()
}
