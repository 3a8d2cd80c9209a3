package stats

// Snapshot support for the run collector. Series serialise their samples in
// current order together with the running float sum — the sum is an
// accumulated value whose rounding depends on addition order, so it must
// round-trip bit-exactly rather than be recomputed.

import "repro/internal/snapshot"

// walk walks the series' samples and running sum.
func (s *Series) walk(c *snapshot.Codec) {
	snapshot.Slice(c, &s.samples, c.F64)
	if c.Decoding() {
		s.nsorted = 0
	}
	c.F64(&s.sum)
}

// State encodes or decodes the run's counters, window bounds and latency
// series.
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
