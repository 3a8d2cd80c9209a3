package pcs

import (
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
// table: LinkByID + ReverseLink for the U-turn, Offsets + OutLink on cubes,
// OutSlot + Distance elsewhere. It is the oracle outputs must match option
// for option.
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
				link, ok := g.OutLink(at, dim, dir)
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

// TestOutputsMatchInterfaceReference checks the table-driven enumeration
// against the reference for every (at, dst, arrival link) — including "just
// launched", no arrival — on both cube kinds and the two non-cube families.
func TestOutputsMatchInterfaceReference(t *testing.T) {
	topos := []topology.Topology{
		topology.MustCube([]int{8, 8}, true),
		topology.MustCube([]int{8, 8}, false),
		topology.MustFatTree(4, 2),
		topology.MustFullMesh(16),
	}
	const sw = 1
	for _, topo := range topos {
		e := newEngine(t, topo, Params{NumSwitches: 2, MaxMisroutes: 2}, &fakeHost{})
		arrivals := make([][]topology.LinkID, topo.Nodes())
		for n := range arrivals {
			arrivals[n] = []topology.LinkID{topology.Invalid}
		}
		for _, l := range topology.AllLinks(topo) {
			arrivals[l.To] = append(arrivals[l.To], l.ID)
		}
		var got []outOption
		for at := topology.Node(0); int(at) < topo.Nodes(); at++ {
			for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
				if at == dst {
					continue
				}
				for _, arrival := range arrivals[at] {
					back := int32(-1)
					if arrival != topology.Invalid {
						back = e.tab.Reverse[arrival]
					}
					got = e.outputs(at, dst, back, sw, got[:0])
					want := referenceOutputs(topo, at, dst, arrival, sw)
					if len(got) != len(want) {
						t.Fatalf("%s at %d dst %d via %d: %d options, reference %d", topo.Name(), at, dst, arrival, len(got), len(want))
					}
					for i, o := range got {
						if o.channel(sw) != want[i].ch || o.bit != want[i].bit || o.profitable != want[i].profitable || o.key != e.key(want[i].ch) {
							t.Fatalf("%s at %d dst %d via %d: option %d = %+v, reference %+v", topo.Name(), at, dst, arrival, i, o, want[i])
						}
					}
				}
			}
		}
	}
}
