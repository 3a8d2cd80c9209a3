package core

// Snapshot support. The fabric serialises its own mutable state — the RNG,
// the pending event queue (descriptor events only) and counters — and
// delegates to the wormhole engine, the PCS engine and every per-node
// Circuit Cache. Restoring into a fabric built from the identical Params and
// topology reproduces the original bit for bit; subsequent cycles are
// indistinguishable from an uninterrupted run. The count of flits injected
// that Check balances is not in the format: decoding derives it from the
// restored state, so the balance holds from there on, and then refuses a
// state that breaks any other clause of Check.

import (
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// State encodes or decodes the complete fabric state. Encoding must happen
// between cycles; every pending event, probe and teardown is data, so it
// always succeeds. Decoding requires a fabric built with the same topology
// and Params.
func (f *Fabric) State(c *snapshot.Codec) error {
	snapshot.I64(c, &f.now)
	st := f.rng.State()
	c.U64(&st)
	f.rng.Seed(st)

	snapshot.I64(c, &f.CircuitFlitsDelivered)
	snapshot.I64(c, &f.CircuitMsgsDelivered)
	snapshot.I64(c, &f.Reallocs)
	c.Fixed(len(f.WaveLinkFlits), "core link slots", func(i int) { snapshot.I64(c, &f.WaveLinkFlits[i]) })

	for _, walk := range []func(*snapshot.Codec) error{f.events.State, f.WH.State, f.PCS.State} {
		if err := walk(c); err != nil {
			return err
		}
	}
	for n := range f.caches {
		if err := f.Cache(topology.Node(n)).State(c); err != nil {
			return err
		}
	}
	if c.Decoding() {
		in, out := f.flitBalance()
		f.flitsIn += out - in
		if c.Err() == nil {
			if err := f.Check(); err != nil {
				return c.Failf("snapshot: %w", err)
			}
		}
	}
	return c.Err()
}
