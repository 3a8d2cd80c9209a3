package pcs

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/topology"
)

type refOption struct {
	ch         Channel
	bit        uint32
	profitable bool
}

// referenceOutputs is the output enumeration spelled with the Topology and
// Geometry interface calls the engine made per hop before it read the link
// table: LinkByID + ReverseLink for the U-turn, Offsets + OutSlot on cubes,
// OutSlot + Distance elsewhere. It lists a router's candidate outputs in the
// probe's order, and it is the oracle the probe's output selection (pick,
// requestedChannels) and every frame's masks must match.
func referenceOutputs(topo topology.Topology, at, dst topology.Node, arrival topology.LinkID, sw int) []refOption {
	back := topology.Invalid
	if l, ok := topo.LinkByID(arrival); ok {
		back, _ = topology.ReverseLink(topo, l)
	}
	var prof, mis []refOption
	if g, ok := topo.(topology.Geometry); ok {
		offs := g.Offsets(at, dst, make([]int, g.Dims()))
		var mags []int
		for dim := 0; dim < g.Dims(); dim++ {
			for dir := topology.Plus; dir <= topology.Minus; dir++ {
				link, ok := g.OutSlot(at, 2*dim+int(dir))
				if !ok || link == back {
					continue
				}
				o := refOption{ch: Channel{Link: link, Switch: sw}, bit: 1 << uint(dim*2+int(dir))}
				o.profitable = (offs[dim] > 0 && dir == topology.Plus) || (offs[dim] < 0 && dir == topology.Minus)
				if !o.profitable {
					mis = append(mis, o)
					continue
				}
				mag := offs[dim]
				if mag < 0 {
					mag = -mag
				}
				// Largest remaining offset first, stable.
				prof, mags = append(prof, o), append(mags, mag)
				for j := len(mags) - 1; j > 0 && mags[j] > mags[j-1]; j-- {
					mags[j], mags[j-1] = mags[j-1], mags[j]
					prof[j], prof[j-1] = prof[j-1], prof[j]
				}
			}
		}
		return append(prof, mis...)
	}
	atDist := topo.Distance(at, dst)
	for port := 0; port < topo.OutDegree(at); port++ {
		link, ok := topo.OutSlot(at, port)
		if !ok || link == back {
			continue
		}
		l, _ := topo.LinkByID(link)
		o := refOption{ch: Channel{Link: link, Switch: sw}, bit: 1 << uint(port)}
		if o.profitable = topo.Distance(l.To, dst) < atDist; o.profitable {
			prof = append(prof, o)
		} else {
			mis = append(mis, o)
		}
	}
	return append(prof, mis...)
}

// outputTopologies are the topologies the output-selection oracles cover:
// both cube kinds, a hypercube, and the two non-cube families.
func outputTopologies(t *testing.T) []topology.Topology {
	t.Helper()
	cube, err := topology.NewHypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	return []topology.Topology{
		topology.MustCube([]int{4, 4}, true),
		topology.MustCube([]int{4, 4}, false),
		cube,
		topology.MustFatTree(4, 2),
		topology.MustFullMesh(8),
	}
}

// arrivalLinks lists, per node, the links a probe can arrive on, led by
// topology.Invalid for a probe that has just launched there.
func arrivalLinks(topo topology.Topology) [][]topology.LinkID {
	arrivals := make([][]topology.LinkID, topo.Nodes())
	for n := range arrivals {
		arrivals[n] = []topology.LinkID{topology.Invalid}
	}
	for _, l := range topology.AllLinks(topo) {
		arrivals[l.To] = append(arrivals[l.To], l.ID)
	}
	return arrivals
}

// TestOutputsMatchInterfaceReference checks the probe's output selection
// against the reference list for every (at, dst, arrival link, switch) —
// including "just launched", no arrival — under random Channel Status
// registers, History Store masks and misroute budgets. The first choice
// must be the reference list's first free, unsearched, in-budget option,
// and the Force request list the reference list filtered to unsearched,
// in-budget, non-Faulty channels, in the same order.
func TestOutputsMatchInterfaceReference(t *testing.T) {
	const maxMis = 2
	for _, topo := range outputTopologies(t) {
		e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: maxMis}, &fakeHost{})
		rng := rand.New(rand.NewSource(1))
		arrivals := arrivalLinks(topo)
		picks, waits := 0, 0
		for at := topology.Node(0); int(at) < topo.Nodes(); at++ {
			for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
				if at == dst {
					continue
				}
				for _, arrival := range arrivals[at] {
					for sw := 0; sw < 2; sw++ {
						want := referenceOutputs(topo, at, dst, arrival, sw)
						for trial := 0; trial < 4; trial++ {
							for port := 0; port < topo.OutDegree(at); port++ {
								if link, ok := topo.OutSlot(at, port); ok {
									e.setStatus(int32(link), sw, [...]Status{Free, Free, Free, Reserved, Established, Faulty}[rng.Intn(6)])
								}
							}
							p := e.newProbe()
							p.dst, p.sw, p.at, p.src, p.maxMis = dst, sw, at, at, rng.Intn(maxMis+1)
							p.misroutes = rng.Intn(p.maxMis + 1)
							if arrival != topology.Invalid {
								l, _ := topo.LinkByID(arrival)
								p.src = l.From
								p.path = []pathHop{{link: int32(arrival), key: e.key(Channel{Link: arrival, Switch: sw})}}
							}
							hist := rng.Uint32() & rng.Uint32()
							p.histNodes, p.histMasks = []topology.Node{at}, []uint32{hist}
							p.visited[at>>6] |= 1 << (at & 63)
							f := e.curFrame(p)

							wantPort := -1
							var wantReq []refOption
							for _, o := range want {
								if hist&o.bit != 0 || (!o.profitable && p.misroutes >= p.maxMis) {
									continue
								}
								switch e.ChannelStatus(o.ch) {
								case Free:
									if wantPort < 0 {
										wantPort = bits.TrailingZeros32(o.bit)
									}
								case Faulty:
									continue
								}
								wantReq = append(wantReq, o)
							}
							if got := e.pick(p, f); got != wantPort {
								t.Fatalf("%s at %d dst %d via %d sw %d hist %#x misroutes %d/%d: pick %d, reference %d",
									topo.Name(), at, dst, arrival, sw, hist, p.misroutes, p.maxMis, got, wantPort)
							}
							req := e.requestedChannels(p, f)
							if len(req) != len(wantReq) {
								t.Fatalf("%s at %d dst %d via %d sw %d: %d requested, reference %d", topo.Name(), at, dst, arrival, sw, len(req), len(wantReq))
							}
							for i, o := range req {
								if w := wantReq[i]; o.channel(sw) != w.ch || o.bit != w.bit || o.profitable != w.profitable || o.key != e.key(w.ch) {
									t.Fatalf("%s at %d dst %d via %d sw %d: requested %d = %+v, reference %+v", topo.Name(), at, dst, arrival, sw, i, o, w)
								}
							}
							if wantPort >= 0 {
								picks++
							} else if len(wantReq) > 0 {
								waits++
							}
						}
					}
				}
			}
		}
		// The statuses are forged, held by no path: only the free-vector
		// clause of Check applies.
		if err := e.checkFree(); err != nil {
			t.Fatal(err)
		}
		if picks < 100 || waits < 100 {
			t.Fatalf("%s: too few cases exercised: %d with a first choice, %d blocked with requests", topo.Name(), picks, waits)
		}
	}
}
