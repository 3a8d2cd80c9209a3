package wave

import (
	"hash/fnv"

	"repro/internal/protocol"
)

// Stats is a comparable snapshot of everything a run observably computed:
// every protocol, probe, cache and fabric counter, plus checksums of the
// per-link flit totals. Two runs of the same configuration and seed must
// produce equal Stats — the determinism contract the oracle cross-check
// tests compare on.
type Stats struct {
	Cycle int64

	Protocol protocol.Counters
	Probes   ProbeCounters
	Cache    CacheStats

	// Wormhole-substrate totals.
	WHFlitsMoved     int64
	WHFlitsDelivered int64
	WHMsgsDelivered  int64

	// Circuit-substrate totals.
	CircuitFlitsDelivered int64
	CircuitMsgsDelivered  int64
	Reallocs              int64

	// FNV-1a checksums of the per-link flit counters, wormhole and wave
	// respectively: a cheap fingerprint of where every flit travelled.
	LinkFlitsSum     uint64
	WaveLinkFlitsSum uint64
}

func sumInt64s(vs []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// Stats captures the current snapshot.
func (s *Simulator) Stats() Stats {
	fab := s.mgr.Fab
	return Stats{
		Cycle:                 s.now,
		Protocol:              s.mgr.Ctr,
		Probes:                s.ProbeCounters(),
		Cache:                 s.CacheStats(),
		WHFlitsMoved:          fab.WH.FlitsMoved,
		WHFlitsDelivered:      fab.WH.FlitsDelivered,
		WHMsgsDelivered:       fab.WH.MsgsDelivered,
		CircuitFlitsDelivered: fab.CircuitFlitsDelivered,
		CircuitMsgsDelivered:  fab.CircuitMsgsDelivered,
		Reallocs:              fab.Reallocs,
		LinkFlitsSum:          sumInt64s(fab.WH.LinkFlits),
		WaveLinkFlitsSum:      sumInt64s(fab.WaveLinkFlits),
	}
}

// Close does nothing.
//
// Deprecated: a simulator owns no goroutines or other resources to release;
// kept so the benchmark module compiles.
func (s *Simulator) Close() {}
