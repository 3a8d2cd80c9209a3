package wormhole

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/topology"
)

// TestForgedSlotCountBounded decodes a digest-valid payload that claims
// 1<<26 arena slots in a few bytes. Sizing the arena from that count would
// allocate gigabytes before the decode failed; the codec must refuse it
// against the bytes left and allocate next to nothing.
func TestForgedSlotCountBounded(t *testing.T) {
	h := newHarness(t, topology.MustCube([]int{4, 4}, false), "dor", Params{NumVCs: 2, BufDepth: 4})
	var buf bytes.Buffer
	enc, err := snapshot.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var now, rr int64
	slots := 1 << 26
	snapshot.I64(enc, &now)
	snapshot.I64(enc, &rr)
	enc.Count(&slots)
	for i := 0; i < 16; i++ {
		enc.Bool(new(bool))
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}

	dec, err := snapshot.Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = h.eng.State(dec)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "implausible element count") {
		t.Fatalf("forged slot count: err = %v, want an implausible-count error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("forged slot count allocated %d bytes before failing", grew)
	}
}
