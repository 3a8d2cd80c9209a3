package wormhole

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/flit"
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

// queuedHeadEngine runs 2-flit traffic through 8-flit buffers until some VC
// holds a buffered header behind the message it is streaming, and returns
// the engine with that VC's port.
func queuedHeadEngine(t *testing.T) (*harness, int32) {
	t.Helper()
	h := newHarness(t, topology.MustCube([]int{8, 8}, true), "dor", Params{NumVCs: 2, BufDepth: 8})
	for i := 0; i < 4*64; i++ {
		src := i % 64
		h.eng.Inject(flit.Message{ID: flit.MsgID(i + 1), Src: src, Dst: (src*17 + 9 + i/64) % 64, Len: 2})
	}
	for cyc := int64(0); cyc < 1000; cyc++ {
		h.eng.Cycle(cyc)
		for port := range h.eng.chans {
			if v := &h.eng.chans[port]; v.phase == vcActive && v.qn > 0 {
				return h, int32(port)
			}
		}
	}
	t.Fatal("no VC ever queued a header behind a streaming message")
	return nil, 0
}

// restoreInto encodes src's state and decodes it into a fresh engine of the
// same configuration, returning that engine and the decode error.
func restoreInto(t *testing.T, src *Engine) (*Engine, error) {
	t.Helper()
	var buf bytes.Buffer
	enc, err := snapshot.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.State(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	dst, err := New(src.topo, src.fn, src.prm, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := snapshot.Open(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.State(dec); err != nil {
		return dst, err
	}
	mustCheck(t, dst)
	return dst, nil
}

// TestRestoreRecountsLiveSlots: the live-slot count is not in the byte
// format; decoding recounts it from the arena's live flags, so a count that
// disagrees with the arena does not survive a round trip.
func TestRestoreRecountsLiveSlots(t *testing.T) {
	h, _ := queuedHeadEngine(t)
	live := h.eng.liveSlots
	h.eng.liveSlots++
	dst, err := restoreInto(t, h.eng)
	if err != nil {
		t.Fatal(err)
	}
	if dst.InFlight() != live {
		t.Fatalf("restored engine counts %d live slots, the arena holds %d", dst.InFlight(), live)
	}
}

// TestRestoreRefusesNegativeRotation: the rotation offset rr is the one
// word the passes derive their start from, and a negative one would index
// the active-set walk out of range on the first cycle after restore. A
// digest-valid payload carrying rr = -3 must be refused by name.
func TestRestoreRefusesNegativeRotation(t *testing.T) {
	h := newHarness(t, topology.MustCube([]int{4, 4}, true), "dor", Params{NumVCs: 2, BufDepth: 4})
	h.eng.Inject(flit.Message{ID: 1, Src: 0, Dst: 5, Len: 6})
	h.eng.Cycle(0)
	h.eng.rr = -3
	if _, err := restoreInto(t, h.eng); err == nil || !strings.Contains(err.Error(), "rr = -3") {
		t.Fatalf("err = %v, want a negative rotation offset refused", err)
	}
}

// TestRestoreRefusesInconsistentPayload: a buffered flit is written as its
// arena reference (slot, sequence number), and decoding rebuilds message
// runs and derives each flit's kind. A reference to a slot past the arena
// must be refused before anything reads that slot, and flits out of
// message order because they are not runs; one to a free slot or past its
// message's end must be refused by Check rather than rebuilt into a flit
// no message has; so must a port phase the engine does not know.
func TestRestoreRefusesInconsistentPayload(t *testing.T) {
	h, port := queuedHeadEngine(t)
	if _, err := restoreInto(t, h.eng); err != nil {
		t.Fatalf("clean payload refused: %v", err)
	}
	// last returns the slot of the last message queued at port, whose
	// flits are the last the port buffers.
	last := func(h *harness) *int32 {
		return &h.eng.msgq[port*h.eng.depth+h.eng.chans[port].qn-1]
	}

	t.Run("flit of no live message", func(t *testing.T) {
		h, _ := queuedHeadEngine(t)
		h.eng.slots[*last(h)].live = false
		_, err := restoreInto(t, h.eng)
		if err == nil || !strings.Contains(err.Error(), "no live message") {
			t.Fatalf("err = %v, want a flit of no live message", err)
		}
	})

	t.Run("flit of a free slot", func(t *testing.T) {
		h, _ := queuedHeadEngine(t)
		if len(h.eng.freeSlots) == 0 {
			t.Fatal("no free slot in the arena")
		}
		*last(h) = h.eng.freeSlots[0]
		_, err := restoreInto(t, h.eng)
		if err == nil || !strings.Contains(err.Error(), "no live message") {
			t.Fatalf("err = %v, want a flit of a free slot refused", err)
		}
	})

	t.Run("flit past its message's end", func(t *testing.T) {
		h, _ := queuedHeadEngine(t)
		v := &h.eng.chans[port]
		v.seq = v.flen
		_, err := restoreInto(t, h.eng)
		if err == nil || !strings.Contains(err.Error(), "flits long") {
			t.Fatalf("err = %v, want a flit past its message's end refused", err)
		}
	})

	t.Run("flit slot out of range", func(t *testing.T) {
		for _, slot := range []int32{int32(len(h.eng.slots)), -1} {
			h, _ := queuedHeadEngine(t)
			*last(h) = slot
			_, err := restoreInto(t, h.eng)
			if err == nil || !strings.Contains(err.Error(), "arena of") {
				t.Fatalf("slot %d: err = %v, want a slot out of range refused", slot, err)
			}
		}
	})

	t.Run("flits out of message order", func(t *testing.T) {
		// A front cut short puts the queued header right behind a flit
		// that is not its message's tail.
		h, _ := queuedHeadEngine(t)
		for cyc := h.eng.now + 1; ; cyc++ {
			if cyc == h.eng.now+1000 {
				t.Fatal("no VC queued a header behind two flits of its front")
			}
			i := slices.IndexFunc(h.eng.chans, func(v channel) bool { return v.qn > 0 && v.flen-v.seq >= 2 })
			if i >= 0 {
				v := &h.eng.chans[i]
				v.flen = v.seq + 1
				break
			}
			h.eng.Cycle(cyc)
		}
		_, err := restoreInto(t, h.eng)
		if err == nil || !strings.Contains(err.Error(), "out of message order") {
			t.Fatalf("err = %v, want flits out of message order refused", err)
		}
	})

	t.Run("unknown port phase", func(t *testing.T) {
		h, _ := queuedHeadEngine(t)
		h.eng.chans[port].phase = vcActive + 1
		_, err := restoreInto(t, h.eng)
		if err == nil || !strings.Contains(err.Error(), "port phase 3") {
			t.Fatalf("err = %v, want an unknown port phase refused", err)
		}
	})
}

// TestRestoreRefusesCreditForNoChannel: a credit in flight names the output
// channel it returns to, and the first cycle after restore indexes the
// channels with it. A payload whose credit names no channel must be refused
// (FuzzRestore found one that panicked in drainCredits).
func TestRestoreRefusesCreditForNoChannel(t *testing.T) {
	h := newHarness(t, topology.MustCube([]int{4, 4}, true), "dor", Params{NumVCs: 2, BufDepth: 4, CreditDelay: 2})
	h.eng.Inject(flit.Message{ID: 1, Src: 0, Dst: 5, Len: 6})
	for cyc := int64(0); len(h.eng.creditQueue) == h.eng.creditHead; cyc++ {
		if cyc == 100 {
			t.Fatal("no credit ever in flight")
		}
		h.eng.Cycle(cyc)
	}
	if _, err := restoreInto(t, h.eng); err != nil {
		t.Fatalf("clean payload refused: %v", err)
	}
	for _, ch := range []int32{int32(len(h.eng.chans)), -1} {
		h.eng.creditQueue[h.eng.creditHead].ch = ch
		if _, err := restoreInto(t, h.eng); err == nil || !strings.Contains(err.Error(), "credit in flight") {
			t.Fatalf("credit for channel %d: err = %v, want it refused", ch, err)
		}
	}
}

// TestRestoreRecomputesInjectionFrontLen: an active injection port's
// front-message length is derived state, not in the byte format. Decoding
// must recompute it, so a restored engine injects the same flits as the
// original, and must refuse a port whose front is no live message.
func TestRestoreRecomputesInjectionFrontLen(t *testing.T) {
	h := newHarness(t, topology.MustCube([]int{4, 4}, true), "dor", Params{NumVCs: 2, BufDepth: 4})
	h.eng.Inject(flit.Message{ID: 1, Src: 0, Dst: 5, Len: 6})
	h.eng.Inject(flit.Message{ID: 2, Src: 3, Dst: 3, Len: 8}) // self-send: no flit enters a VC
	h.eng.Inject(flit.Message{ID: 3, Src: 7, Dst: 2, Len: 1})
	h.eng.Inject(flit.Message{ID: 4, Src: 7, Dst: 1, Len: 5})
	for cyc := int64(0); cyc < 3; cyc++ {
		h.eng.Cycle(cyc)
	}
	dst, err := restoreInto(t, h.eng)
	if err != nil {
		t.Fatal(err)
	}
	for n := range h.eng.inj {
		if p, q := &h.eng.inj[n], &dst.inj[n]; p.phase == vcActive && q.frontLen != p.frontLen {
			t.Fatalf("node %d: restored frontLen %d, want %d", n, q.frontLen, p.frontLen)
		}
	}
	for cyc := int64(3); cyc < 100; cyc++ {
		h.eng.Cycle(cyc)
		dst.Cycle(cyc)
	}
	if dst.FlitsDelivered != h.eng.FlitsDelivered || dst.MsgsDelivered != 4 || h.eng.MsgsDelivered != 4 {
		t.Fatalf("restored engine delivered %d flits / %d messages, original %d / %d",
			dst.FlitsDelivered, dst.MsgsDelivered, h.eng.FlitsDelivered, h.eng.MsgsDelivered)
	}

	h = newHarness(t, topology.MustCube([]int{4, 4}, true), "dor", Params{NumVCs: 2, BufDepth: 4})
	h.eng.Inject(flit.Message{ID: 1, Src: 3, Dst: 3, Len: 8})
	h.eng.Cycle(0)
	h.eng.slots[h.eng.inj[3].front()].live = false
	if _, err := restoreInto(t, h.eng); err == nil || !strings.Contains(err.Error(), "fronts slot") {
		t.Fatalf("err = %v, want an injection port fronting no live message", err)
	}

	// A queued message behind the front becomes the front later, and a
	// routing port reads its slot too (FuzzRestore found a payload whose
	// routing port's front indexed past the arena).
	h = newHarness(t, topology.MustCube([]int{4, 4}, true), "dor", Params{NumVCs: 2, BufDepth: 4})
	h.eng.Inject(flit.Message{ID: 1, Src: 3, Dst: 6, Len: 8})
	h.eng.Inject(flit.Message{ID: 2, Src: 3, Dst: 9, Len: 8})
	h.eng.Cycle(0)
	p := &h.eng.inj[3]
	if p.qlen() != 2 {
		t.Fatalf("injection port queues %d messages, want 2", p.qlen())
	}
	h.eng.slots[p.queue[p.head+1]].live = false
	if _, err := restoreInto(t, h.eng); err == nil || !strings.Contains(err.Error(), "queues slot") {
		t.Fatalf("err = %v, want an injection port queueing no live message", err)
	}
	p.queue[p.head+1] = int32(len(h.eng.slots))
	if _, err := restoreInto(t, h.eng); err == nil || !strings.Contains(err.Error(), "queues slot") {
		t.Fatalf("err = %v, want an injection port queueing a slot past the arena", err)
	}
}

// stateBytes encodes e's state.
func stateBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := snapshot.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.State(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRestoreDerivesAwaitedFlit: the next flit a streaming VC with an
// empty buffer awaits is not in the byte format; decoding follows channel
// owners upstream to it. The test snapshots an engine with such a VC whose
// owner is an empty streaming VC too, decoded after it, so the derivation
// must follow the chain, and steps the original and the restored engine
// side by side until they drain, requiring the same state bytes after
// every cycle.
func TestRestoreDerivesAwaitedFlit(t *testing.T) {
	h := newHarness(t, topology.MustCube([]int{4, 4}, true), "duato", Params{NumVCs: 3, BufDepth: 2})
	for i := 0; i < 48; i++ {
		src := i % 16
		h.eng.Inject(flit.Message{ID: flit.MsgID(i + 1), Src: src, Dst: (src*5 + 3 + i/16) % 16, Len: 6 + i%7})
	}
	// chained reports whether some empty streaming VC's channel is owned
	// by another empty streaming VC of a higher index.
	chained := func(e *Engine) bool {
		for i := range e.chans {
			v := &e.chans[i]
			if owner := v.owner(); v.phase == vcActive && v.count == 0 && int(owner) > i && int(owner) < len(e.chans) {
				if u := &e.chans[owner]; u.phase == vcActive && u.count == 0 {
					return true
				}
			}
		}
		return false
	}
	cyc := int64(0)
	for ; !chained(h.eng); cyc++ {
		if cyc == 2000 {
			t.Fatal("no empty streaming VC was ever owned by another")
		}
		h.eng.Cycle(cyc)
	}
	dst, err := restoreInto(t, h.eng)
	if err != nil {
		t.Fatal(err)
	}
	for ; !h.eng.Quiesce(); cyc++ {
		if cyc == 100_000 {
			t.Fatal("did not drain")
		}
		if !bytes.Equal(stateBytes(t, dst), stateBytes(t, h.eng)) {
			t.Fatalf("cycle %d: the restored engine's state differs from the original's", cyc)
		}
		h.eng.Cycle(cyc)
		dst.Cycle(cyc)
	}
	if !dst.Quiesce() || dst.MsgsDelivered != 48 {
		t.Fatalf("restored engine delivered %d of 48 messages", dst.MsgsDelivered)
	}
}
