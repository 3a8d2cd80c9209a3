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
		e.in[port].outCh1 = ch + 1
	}
}

// TestCheckNamesEachClause corrupts one field of a live engine per case and
// requires Check to name the broken clause; the uncorrupted engine passes.
func TestCheckNamesEachClause(t *testing.T) {
	for _, c := range []struct {
		name, clause string
		corrupt      func(t *testing.T, e *Engine)
	}{
		{"credit bumped", "credits:", func(t *testing.T, e *Engine) { e.out[3].spent-- }},
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
					e.out[ch].owner1 = int32(port) + 1
					return
				}
			}
			t.Fatal("no idle port")
		}},
		{"buffered flit of a freed slot", "flits:", func(t *testing.T, e *Engine) {
			for i := range e.in {
				if e.in[i].count > 0 {
					e.slots[e.ring[e.ringAt(int32(i), 0)].slot].live = false
					return
				}
			}
			t.Fatal("no buffered flit")
		}},
		{"flit of the wrong kind", "flits:", func(t *testing.T, e *Engine) {
			for i := range e.in {
				if e.in[i].count > 0 {
					r := &e.ring[e.ringAt(int32(i), 0)]
					r.kind = flit.KindOf(int(r.seq)+1, int(r.seq)+3)
					return
				}
			}
			t.Fatal("no buffered flit")
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
