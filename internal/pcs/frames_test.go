package pcs

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topology"
)

// checkFrames compares every frame on p's stack with the reference list
// for the frame's node and arrival link: the profitable mask and top port
// must be the reference's profitable options and the first of them, the
// back bit must be the one existing port the list leaves out (none at the
// source), and the History Store index must name that node's entry (or be
// -1 while the node has none). The current frame's mask must equal the
// History Store scan histAt(p.at).
func checkFrames(t *testing.T, e *Engine, p *probe, step int) {
	t.Helper()
	if len(p.frames) != len(p.path)+1 {
		t.Fatalf("step %d: %d frames at depth %d", step, len(p.frames), len(p.path))
	}
	at := p.src
	for d, f := range p.frames {
		arrival := topology.Invalid
		if d > 0 {
			arrival = topology.LinkID(p.path[d-1].link)
			at = topology.Node(e.tab.To[arrival])
		}
		var listed, exist, prof uint32
		top := int32(-1)
		for _, o := range referenceOutputs(e.topo, at, p.dst, arrival, p.sw) {
			listed |= o.bit
			if o.profitable {
				prof |= o.bit
				if top < 0 {
					top = int32(bits.TrailingZeros32(o.bit))
				}
			}
		}
		for port := 0; port < e.topo.OutDegree(at); port++ {
			if _, ok := e.topo.OutSlot(at, port); ok {
				exist |= 1 << uint(port)
			}
		}
		switch {
		case f.prof != prof || f.top != top:
			t.Fatalf("step %d depth %d: frame profitable %#x top %d, reference %#x top %d", step, d, f.prof, f.top, prof, top)
		case exist&^f.back != listed || bits.OnesCount32(f.back) > 1 || (d == 0 && f.back != 0):
			t.Fatalf("step %d depth %d: frame back bit %#x, reference lists %#x of ports %#x", step, d, f.back, listed, exist)
		case f.first != int32(e.topo.SlotBase(at)) || f.cs != int32(int(at)*e.prm.NumSwitches+p.sw):
			t.Fatalf("step %d depth %d: frame slots %d word %d, node %d", step, d, f.first, f.cs, at)
		case f.hist >= 0 && p.histNodes[f.hist] != at:
			t.Fatalf("step %d depth %d: frame names the History Store entry of node %d, frame node %d", step, d, p.histNodes[f.hist], at)
		case f.hist < 0 && slices.Contains(p.histNodes, at):
			t.Fatalf("step %d depth %d: frame has no History Store entry, node %d has one", step, d, at)
		}
	}
	if at != p.at {
		t.Fatalf("step %d: path ends at %d, probe at %d", step, at, p.at)
	}
	if got, want := p.histOf(&p.frames[len(p.path)]), p.histAt(p.at); got != want {
		t.Fatalf("step %d: frame history mask %#x, histAt %#x", step, got, want)
	}
}

// TestFramesMatchFreshOutputs drives one probe through a random walk of
// advances over free unsearched outputs (misroutes included), backtracks,
// and frame drops that stand in for a snapshot restore, and checks the
// whole frame stack against the reference list, and the Channel Status
// vector against the status registers, after every step. The walk revisits
// nodes through other links, which is where a frame could pick up stale
// masks or the wrong History Store entry.
func TestFramesMatchFreshOutputs(t *testing.T) {
	for _, topo := range outputTopologies(t) {
		t.Run(topo.Name(), func(t *testing.T) {
			e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: 2}, &fakeHost{})
			rng := rand.New(rand.NewSource(1))
			hosts := topo.Hosts()
			advances, backtracks, revisits := 0, 0, 0
			for walk := 0; walk < 40; walk++ {
				src := topology.Node(rng.Intn(hosts))
				dst := topology.Node((int(src) + 1 + rng.Intn(hosts-1)) % hosts)
				e.LaunchProbeTagged(src, dst, walk%2, false, 0)
				p := e.probes[len(e.probes)-1]
				for step := 0; step < 200; step++ {
					f := e.curFrame(p)
					checkFrames(t, e, p, step)
					mustCheck(t, e)
					var free []int
					for c := e.free[f.cs] &^ p.histOf(f) &^ f.back; c != 0; c &= c - 1 {
						free = append(free, bits.TrailingZeros32(c))
					}
					switch r := rng.Intn(10); {
					case r == 0:
						p.frames = p.frames[:0]
					case p.at != p.dst && len(free) > 0 && r < 7:
						e.takeChannel(p, f, free[rng.Intn(len(free))])
						advances++
						if p.histAt(p.at) != 0 {
							revisits++
						}
					case len(p.path) > 0:
						e.probeBacktrack(p)
						backtracks++
					}
				}
				for len(p.path) > 0 {
					e.curFrame(p)
					e.probeBacktrack(p)
				}
				e.probes = e.probes[:0]
				e.cleanupHistory(p)
				e.putProbe(p)
				for k, s := range e.status {
					if s != Free {
						t.Fatalf("channel %d left %v after the walk unwound", k, s)
					}
				}
			}
			if advances < 300 || backtracks < 300 || revisits < 20 {
				t.Fatalf("walk too short: %d advances, %d backtracks, %d advances onto an already searched node", advances, backtracks, revisits)
			}
		})
	}
}
