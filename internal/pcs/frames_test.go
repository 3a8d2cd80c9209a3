package pcs

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topology"
)

// checkFrames compares every frame on p's stack with what it caches: the
// output list must equal a fresh outputs call for the frame's node and
// arrival link, and the History Store index must name that node's entry
// (or be -1 while the node has none). The current frame's mask must equal
// the History Store scan histAt(p.at).
func checkFrames(t *testing.T, e *Engine, p *probe, step int) {
	t.Helper()
	if len(p.frames) != len(p.path)+1 {
		t.Fatalf("step %d: %d frames at depth %d", step, len(p.frames), len(p.path))
	}
	at := p.src
	for d, f := range p.frames {
		back := int32(-1)
		if d > 0 {
			l := p.path[d-1].link
			at, back = topology.Node(e.tab.To[l]), e.tab.Reverse[l]
		}
		end := len(p.opts)
		if d+1 < len(p.frames) {
			end = int(p.frames[d+1].start)
		}
		if want := e.outputs(at, p.dst, back, p.sw, nil); !slices.Equal(p.opts[f.start:end], want) {
			t.Fatalf("step %d depth %d: frame list %+v, fresh outputs %+v", step, d, p.opts[f.start:end], want)
		}
		switch {
		case f.hist >= 0 && p.histNodes[f.hist] != at:
			t.Fatalf("step %d depth %d: frame names the History Store entry of node %d, frame node %d", step, d, p.histNodes[f.hist], at)
		case f.hist < 0 && slices.Contains(p.histNodes, at):
			t.Fatalf("step %d depth %d: frame has no History Store entry, node %d has one", step, d, at)
		}
	}
	if at != p.at {
		t.Fatalf("step %d: path ends at %d, probe at %d", step, at, p.at)
	}
	if got, want := p.frameHist(), p.histAt(p.at); got != want {
		t.Fatalf("step %d: frame history mask %#x, histAt %#x", step, got, want)
	}
}

// TestFramesMatchFreshOutputs drives one probe through a random walk of
// advances over free unsearched outputs (misroutes included), backtracks,
// and frame drops that stand in for a snapshot restore, and checks the
// whole frame stack after every step. The walk revisits nodes through
// other links, which is where a frame could pick up a stale list or the
// wrong History Store entry.
func TestFramesMatchFreshOutputs(t *testing.T) {
	cube, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{
		topology.MustCube([]int{4, 4}, true),
		topology.MustCube([]int{4, 4}, false),
		cube,
		topology.MustFatTree(4, 2),
		topology.MustFullMesh(8),
	}
	for _, topo := range topos {
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
					opts := e.frameOpts(p)
					checkFrames(t, e, p, step)
					hist := p.frameHist()
					var free []outOption
					for _, o := range opts {
						if hist&o.bit == 0 && e.status[o.key] == Free {
							free = append(free, o)
						}
					}
					switch r := rng.Intn(10); {
					case r == 0:
						p.frames, p.opts = p.frames[:0], p.opts[:0]
					case p.at != p.dst && len(free) > 0 && r < 7:
						e.takeChannel(p, free[rng.Intn(len(free))])
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
					e.frameOpts(p)
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
