package pcs

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

// circuitAndProbe returns an 8x8-torus engine where every kind of holder
// is live: an established circuit 0 -> 18 on switch 0, and a probe
// 0 -> 27 two hops into its search on switch 1.
func circuitAndProbe(t *testing.T) (*Engine, *probe, *Circuit) {
	t.Helper()
	e := newEngine(t, topology.MustCube([]int{8, 8}, true), Params{NumSwitches: 2, MaxMisroutes: 2}, &fakeHost{})
	r := watchProbes(e).setup(t, e, 0, 18, 0, false, 200)
	if !r.OK {
		t.Fatal("circuit 0 -> 18 failed")
	}
	c, _ := e.CircuitByID(r.Circuit)
	e.LaunchProbeTagged(0, 27, 1, false, 0)
	e.Cycle(e.now + 1)
	e.Cycle(e.now + 1)
	if len(e.probes) != 1 || len(e.probes[0].path) != 2 {
		t.Fatal("probe 0 -> 27 is not two hops into its search")
	}
	return e, e.probes[0], c
}

// TestCheckNamesEachClause corrupts one register or path of a live engine
// per case and requires Check to name the broken clause; the uncorrupted
// engine passes.
func TestCheckNamesEachClause(t *testing.T) {
	for _, c := range []struct {
		name, clause string
		corrupt      func(e *Engine, p *probe, circ *Circuit)
	}{
		{"free bit on a Reserved channel", "free vector:", func(e *Engine, p *probe, _ *Circuit) {
			link := p.path[0].link
			from := e.tab.From[link]
			e.free[int(from)*e.prm.NumSwitches+p.sw] |= 1 << uint(link-e.slot0[from])
		}},
		{"reservation leaked", "holders:", func(e *Engine, _ *probe, _ *Circuit) {
			for k, s := range e.status {
				if s == Free {
					e.setStatus(int32(k/e.prm.NumSwitches), k%e.prm.NumSwitches, Reserved)
					return
				}
			}
		}},
		{"probe hop freed under it", "holders:", func(e *Engine, p *probe, _ *Circuit) {
			e.setStatus(p.path[1].link, p.sw, Free)
		}},
		{"Ack Returned on a Reserved channel", "holders:", func(e *Engine, p *probe, _ *Circuit) {
			e.ackRet[p.path[0].key] = true
		}},
		{"circuit hop owned by another circuit", "holders:", func(e *Engine, _ *probe, circ *Circuit) {
			e.owner[e.key(circ.Path[1])] = int64(circ.ID) + 100
		}},
		{"reverse mapping dropped", "mappings:", func(e *Engine, p *probe, _ *Circuit) {
			e.reverseMap1[p.path[1].key] = 0
		}},
		{"direct mapping past a circuit's end", "mappings:", func(e *Engine, _ *probe, circ *Circuit) {
			e.directMap1[e.key(circ.Path[len(circ.Path)-1])] = e.key(circ.Path[0]) + 1
		}},
		{"mapping on a Free channel", "mappings:", func(e *Engine, _ *probe, _ *Circuit) {
			for k, s := range e.status {
				if s == Free {
					e.directMap1[k] = 1
					return
				}
			}
		}},
		{"probe off its path", "paths:", func(e *Engine, p *probe, _ *Circuit) { p.at = p.src }},
		{"circuit path broken", "paths:", func(e *Engine, _ *probe, circ *Circuit) {
			circ.Path = circ.Path[1:]
		}},
		{"history entry twice", "history:", func(e *Engine, p *probe, _ *Circuit) {
			p.histNodes = append(p.histNodes, p.histNodes[0])
			p.histMasks = append(p.histMasks, 1)
		}},
		{"pooled probe keeps history", "history:", func(e *Engine, _ *probe, _ *Circuit) {
			e.probePool = append(e.probePool, &probe{histNodes: []topology.Node{3}, histMasks: []uint32{1}})
		}},
		{"visited bit left after cleanup", "history:", func(e *Engine, p *probe, _ *Circuit) {
			q := e.newProbe()
			n := p.histNodes[0]
			q.visited[n>>6] |= 1 << (n & 63)
			e.putProbe(q)
		}},
		{"visited bit missing for a searched node", "history:", func(e *Engine, p *probe, _ *Circuit) {
			n := p.histNodes[len(p.histNodes)-1]
			p.visited[n>>6] &^= 1 << (n & 63)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, p, circ := circuitAndProbe(t)
			mustCheck(t, e)
			c.corrupt(e, p, circ)
			if err := e.Check(); err == nil || !strings.Contains(err.Error(), c.clause) {
				t.Fatalf("Check = %v, want the %q clause", err, c.clause)
			}
		})
	}
}
