package core

// Snapshot support. The fabric serialises its own mutable state — the RNG,
// the pending event queue (descriptor events only), circuit-transfer
// bookkeeping and counters — and delegates to the wormhole engine, the PCS
// engine and every per-node Circuit Cache. Restoring into a fabric built
// from the identical Params and topology reproduces the original bit for
// bit; subsequent cycles are indistinguishable from an uninterrupted run.

import (
	"fmt"
	"sort"

	"repro/internal/flit"
	"repro/internal/snapshot"
)

// EncodeState writes the complete fabric state. It must be called between
// cycles. It errors when any pending event or PCS work item carries a
// closure (ScheduleAt timers, test-only callbacks).
func (f *Fabric) EncodeState(w *snapshot.Writer) error {
	w.I64(f.now)
	w.U64(f.rng.State())

	w.Int(f.transfersInFlight)
	ids := make([]flit.MsgID, 0, len(f.transferInject))
	for id := range f.transferInject {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	w.U32(uint32(len(ids)))
	for _, id := range ids {
		w.I64(int64(id))
		w.I64(f.transferInject[id])
	}

	w.I64(f.CircuitFlitsDelivered)
	w.I64(f.CircuitMsgsDelivered)
	w.I64(f.Reallocs)
	w.U32(uint32(len(f.WaveLinkFlits)))
	for _, v := range f.WaveLinkFlits {
		w.I64(v)
	}

	if err := f.events.EncodeState(w); err != nil {
		return err
	}
	if err := f.WH.EncodeState(w); err != nil {
		return err
	}
	if err := f.PCS.EncodeState(w); err != nil {
		return err
	}
	for _, c := range f.caches {
		if err := c.EncodeState(w); err != nil {
			return err
		}
	}
	return w.Err()
}

// DecodeState restores state written by EncodeState into a fabric built
// with the same topology and Params.
func (f *Fabric) DecodeState(r *snapshot.Reader) error {
	f.now = r.I64()
	f.rng.Seed(r.U64())

	f.transfersInFlight = r.Int()
	f.transferInject = make(map[flit.MsgID]int64)
	nt := r.Count(1 << 26)
	if r.Err() != nil {
		return r.Err()
	}
	for i := 0; i < nt; i++ {
		id := flit.MsgID(r.I64())
		f.transferInject[id] = r.I64()
	}

	f.CircuitFlitsDelivered = r.I64()
	f.CircuitMsgsDelivered = r.I64()
	f.Reallocs = r.I64()
	nw := r.Count(1 << 26)
	if nw != len(f.WaveLinkFlits) {
		return fmt.Errorf("core: snapshot has %d link slots, fabric has %d (topology mismatch)", nw, len(f.WaveLinkFlits))
	}
	for i := range f.WaveLinkFlits {
		f.WaveLinkFlits[i] = r.I64()
	}

	if err := f.events.DecodeState(r); err != nil {
		return err
	}
	if err := f.WH.DecodeState(r); err != nil {
		return err
	}
	if err := f.PCS.DecodeState(r); err != nil {
		return err
	}
	for _, c := range f.caches {
		if err := c.DecodeState(r); err != nil {
			return err
		}
	}
	return r.Err()
}
