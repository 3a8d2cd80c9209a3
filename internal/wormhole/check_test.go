package wormhole

import (
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/topology"
)

// mustCheck fails the test at the engine's first broken invariant.
func mustCheck(tb testing.TB, e *Engine) {
	tb.Helper()
	if err := e.Check(); err != nil {
		tb.Fatal(err)
	}
}

// streamingPorts returns two distinct ports of e that each stream
// onto an output channel.
func streamingPorts(t *testing.T, e *Engine) (a, b int) {
	t.Helper()
	a, b = -1, -1
	for port := 0; port < e.NumPorts(); port++ {
		if ph, ch := e.portOut(port); ph == vcActive && ch >= 0 {
			if a < 0 {
				a = port
			} else {
				return a, port
			}
		}
	}
	t.Fatal("fewer than two ports stream onto an output channel")
	return
}

// setOut points port's output allocation at channel ch.
func setOut(e *Engine, port int, ch int32) {
	if nl := e.numLinkInputs(); port >= nl {
		e.inj[port-nl].outCh1 = ch + 1
	} else {
		e.chans[port].outCh1 = ch + 1
	}
}

// emptyStreamingVC cycles e until some VC streams a message of two flits
// or more with an empty buffer while its channel's owner streams onto it,
// and returns that VC.
func emptyStreamingVC(t *testing.T, e *Engine) int32 {
	t.Helper()
	for cyc := e.now + 1; cyc < e.now+2000; cyc++ {
		for i := range e.chans {
			v := &e.chans[i]
			if v.phase != vcActive || v.count != 0 || v.flen < 2 {
				continue
			}
			if owner := v.owner(); owner < 0 {
				continue
			} else if ph, ch := e.portOut(int(owner)); ph == vcActive && ch == int32(i) {
				return int32(i)
			}
		}
		e.Cycle(cyc)
		mustCheck(t, e)
	}
	t.Fatal("no VC streamed with an empty buffer")
	return -1
}

// TestCheckNamesEachClause corrupts one field of a live engine per case and
// requires Check to name the broken clause; the uncorrupted engine passes.
func TestCheckNamesEachClause(t *testing.T) {
	for _, c := range []struct {
		name, clause string
		corrupt      func(t *testing.T, e *Engine)
	}{
		{"credit bumped", "credits:", func(t *testing.T, e *Engine) { e.chans[3].spent-- }},
		{"channel with a second owner", "ownership:", func(t *testing.T, e *Engine) {
			a, b := streamingPorts(t, e)
			_, ch := e.portOut(a)
			setOut(e, b, ch)
		}},
		{"owner pointing at an idle port", "ownership:", func(t *testing.T, e *Engine) {
			a, _ := streamingPorts(t, e)
			_, ch := e.portOut(a)
			for port := 0; port < e.NumPorts(); port++ {
				if ph, _ := e.portOut(port); ph == vcIdle {
					e.chans[ch].owner1 = int32(port) + 1
					return
				}
			}
			t.Fatal("no idle port")
		}},
		{"buffered flit of a freed slot", "flits:", func(t *testing.T, e *Engine) {
			for i := range e.chans {
				if e.chans[i].count > 0 {
					e.slots[e.chans[i].front1-1].live = false
					return
				}
			}
			t.Fatal("no buffered flit")
		}},
		{"flit of the wrong kind", "flits:", func(t *testing.T, e *Engine) {
			// A routing VC fronts a body flit where its header should be.
			for i := range e.chans {
				if v := &e.chans[i]; v.phase == vcActive && v.count > 0 && v.flen >= 2 {
					v.seq = 1
					e.setPhase(i, &v.phase, vcRouting)
					return
				}
			}
			t.Fatal("no streaming VC buffers a message of two flits or more")
		}},
		{"flits behind no front", "runs:", func(t *testing.T, e *Engine) {
			for i := range e.chans {
				if v := &e.chans[i]; v.count > 0 {
					v.front1 = 0
					return
				}
			}
			t.Fatal("no buffered flit")
		}},
		{"idle VC fronting a message", "runs:", func(t *testing.T, e *Engine) {
			for i := range e.chans {
				if v := &e.chans[i]; v.phase == vcIdle {
					for s := range e.slots {
						if e.slots[s].live {
							v.front1, v.seq, v.flen = int32(s)+1, 0, int32(e.slots[s].msg.Len)
							return
						}
					}
				}
			}
			t.Fatal("no idle VC")
		}},
		{"last queued message without a flit", "runs:", func(t *testing.T, e *Engine) {
			for i := range e.chans {
				if v := &e.chans[i]; v.qn > 0 {
					last := e.msgq[int32(i)*e.depth+v.qn-1]
					for _, r := range e.vcFlits(int32(i), nil) {
						if r.slot == last {
							v.count--
						}
					}
					return
				}
			}
			t.Fatal("no VC queues a message")
		}},
		{"empty streaming VC awaiting the wrong flit", "runs:", func(t *testing.T, e *Engine) {
			v := &e.chans[emptyStreamingVC(t, e)]
			if v.seq++; v.seq == v.flen {
				v.seq -= 2
			}
		}},
		{"live count", "arena:", func(t *testing.T, e *Engine) { e.liveSlots++ }},
		{"message in two slots", "arena:", func(t *testing.T, e *Engine) {
			for s := range e.slots {
				if e.slots[s].live {
					e.slots = append(e.slots, msgSlot{msg: e.slots[s].msg, live: true})
					e.liveSlots++
					return
				}
			}
		}},
		{"routing bit without its phase", "port sets:", func(t *testing.T, e *Engine) {
			for port := 0; port < e.NumPorts(); port++ {
				if ph, _ := e.portOut(port); ph == vcIdle {
					e.routing.add(port)
					return
				}
			}
		}},
		{"stale summary bit", "port sets:", func(t *testing.T, e *Engine) { e.active.sum[0] |= 1 << 63 }},
		{"set count", "port sets:", func(t *testing.T, e *Engine) { e.active.n++ }},
		{"rotation start", "port sets:", func(t *testing.T, e *Engine) { e.start = (e.start + 1) % e.NumPorts() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			h, _ := queuedHeadEngine(t)
			mustCheck(t, h.eng)
			c.corrupt(t, h.eng)
			if err := h.eng.Check(); err == nil || !strings.Contains(err.Error(), c.clause) {
				t.Fatalf("Check = %v, want the %q clause", err, c.clause)
			}
		})
	}
}

// TestCheckHoldsThroughRecoveryAndCreditDelay drains traffic that exercises
// the paths off the common one — delayed credits, route delay, recovery
// aborts on a cyclic routing function — under Check after every cycle,
// and holds FlitBalance to the flits injected: every one is delivered or
// held, and a flit an abort took back after its delivery counts twice.
func TestCheckHoldsThroughRecoveryAndCreditDelay(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	for _, c := range []struct {
		fn  string
		prm Params
	}{
		{"duato", Params{NumVCs: 3, BufDepth: 2, CreditDelay: 3, RouteDelay: 1}},
		{"dor-nodateline", Params{NumVCs: 1, BufDepth: 2}},
	} {
		h := newHarness(t, topo, c.fn, c.prm)
		if c.fn == "dor-nodateline" {
			if err := h.eng.EnableRecovery(RecoveryParams{Timeout: 20}); err != nil {
				t.Fatal(err)
			}
		}
		var injected int64
		for i := 0; i < 200; i++ {
			src := i % 16
			m := flit.Message{ID: flit.MsgID(i + 1), Src: src, Dst: (src*7 + 5 + i/16) % 16, Len: 4 + i%13}
			h.eng.Inject(m)
			injected += int64(m.Len)
		}
		for cyc := int64(0); !h.eng.Quiesce(); cyc++ {
			if cyc == 100_000 {
				t.Fatalf("%s: did not drain", c.fn)
			}
			h.eng.Cycle(cyc)
			mustCheck(t, h.eng)
			if held, retaken := h.eng.FlitBalance(); h.eng.FlitsDelivered+held != injected+retaken {
				t.Fatalf("%s cycle %d: %d delivered + %d held, %d injected + %d retaken", c.fn, cyc, h.eng.FlitsDelivered, held, injected, retaken)
			}
		}
		if c.fn == "dor-nodateline" && h.eng.RecoveryAborts() == 0 {
			t.Fatal("no recovery abort: the retaken-flit path went untested")
		}
	}
}
