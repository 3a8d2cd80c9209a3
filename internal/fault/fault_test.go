package fault

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/pcs"
	"repro/internal/topology"
)

type nullHost struct{}

func (nullHost) RequestLocalRelease(topology.Node, func(pcs.Channel) bool) (pcs.Channel, bool) {
	return pcs.Channel{}, false
}
func (nullHost) RequestRemoteRelease(circuit.ID) {}

func TestRandomChannelsDistinctAndValid(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	plan, err := RandomChannels(topo, 2, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Channels) != 20 {
		t.Fatalf("plan size = %d", len(plan.Channels))
	}
	seen := map[pcs.Channel]bool{}
	for _, ch := range plan.Channels {
		if seen[ch] {
			t.Fatalf("duplicate fault %+v", ch)
		}
		seen[ch] = true
		if _, ok := topo.LinkByID(ch.Link); !ok {
			t.Fatalf("fault on missing link %+v", ch)
		}
		if ch.Switch < 0 || ch.Switch >= 2 {
			t.Fatalf("fault on bad switch %+v", ch)
		}
	}
}

func TestRandomChannelsBounds(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	// 64 links x 2 switches = 128 channels.
	if _, err := RandomChannels(topo, 2, 129, 1); err == nil {
		t.Fatal("oversized plan accepted")
	}
	if _, err := RandomChannels(topo, 2, -1, 1); err == nil {
		t.Fatal("negative count accepted")
	}
	if p, err := RandomChannels(topo, 2, 128, 1); err != nil || len(p.Channels) != 128 {
		t.Fatalf("full plan: %v, %d", err, len(p.Channels))
	}
}

func TestRandomChannelsDeterministic(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	a, _ := RandomChannels(topo, 1, 10, 42)
	b, _ := RandomChannels(topo, 1, 10, 42)
	for i := range a.Channels {
		if a.Channels[i] != b.Channels[i] {
			t.Fatal("plans differ for same seed")
		}
	}
}

func TestApply(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	e, err := pcs.New(topo, pcs.Params{NumSwitches: 2, MaxMisroutes: 1}, nullHost{})
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := RandomChannels(topo, 2, 12, 3)
	plan.Apply(e)
	for _, ch := range plan.Channels {
		if e.ChannelStatus(ch) != pcs.Faulty {
			t.Fatalf("channel %+v not faulty after Apply", ch)
		}
	}
}

func TestNodeIsolating(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, false)
	// Corner node 0 on a mesh has 2 outgoing links; 2 switches -> 4 channels.
	plan := NodeIsolating(topo, 2, 0)
	if len(plan.Channels) != 4 {
		t.Fatalf("corner isolation channels = %d, want 4", len(plan.Channels))
	}
	// Interior node 5 has 4 links -> 8 channels.
	plan = NodeIsolating(topo, 2, 5)
	if len(plan.Channels) != 8 {
		t.Fatalf("interior isolation channels = %d, want 8", len(plan.Channels))
	}
	e, err := pcs.New(topo, pcs.Params{NumSwitches: 2, MaxMisroutes: 1}, nullHost{})
	if err != nil {
		t.Fatal(err)
	}
	plan.Apply(e)
	var res *pcs.SetupResult
	e.SetProbeDone(func(_, _ topology.Node, _ int, _ bool, _ int64, r pcs.SetupResult) { res = &r })
	e.LaunchProbeTagged(5, 10, 0, false, 0)
	for c := 0; c < 200 && res == nil; c++ {
		e.Cycle(int64(c))
	}
	if res == nil || res.OK {
		t.Fatalf("probe from isolated node should fail fast: %+v", res)
	}
}

// TestRandomChannelsMinimalTopology: the smallest buildable network (a
// 2-node mesh) has a single link; counts beyond its channel budget are a
// clean error, not a panic.
func TestRandomChannelsMinimalTopology(t *testing.T) {
	topo := topology.MustCube([]int{2}, false)
	// One link each way x 2 switches = 4 wave channels.
	plan, err := RandomChannels(topo, 2, 4, 1)
	if err != nil || len(plan.Channels) != 4 {
		t.Fatalf("full plan on minimal topology: %v, %d channels", err, len(plan.Channels))
	}
	if _, err := RandomChannels(topo, 2, 5, 1); err == nil {
		t.Fatal("count beyond the only link pair's channels accepted")
	}
	if plan, err = RandomChannels(topo, 2, 0, 1); err != nil || len(plan.Channels) != 0 {
		t.Fatalf("empty plan: %v, %d channels", err, len(plan.Channels))
	}
}

// TestRandomChannelsZeroSwitches: k=0 means no wave channels exist at all,
// even on a topology with links.
func TestRandomChannelsZeroSwitches(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	plan, err := RandomChannels(topo, 0, 0, 1)
	if err != nil || len(plan.Channels) != 0 {
		t.Fatalf("empty plan with k=0: %v, %d channels", err, len(plan.Channels))
	}
	if _, err := RandomChannels(topo, 0, 1, 1); err == nil {
		t.Fatal("positive count accepted with zero wave switches")
	}
}

// TestNodeIsolatingZeroSwitches: with no wave switches there is nothing to
// fault, whatever the node's degree.
func TestNodeIsolatingZeroSwitches(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	plan := NodeIsolating(topo, 0, 5)
	if len(plan.Channels) != 0 {
		t.Fatalf("k=0 isolation produced %d fault channels", len(plan.Channels))
	}
}

// TestRandomChannelsFullDrawIsPermutation: count == len(all) must yield every
// wave channel exactly once (the partial Fisher–Yates run to completion).
func TestRandomChannelsFullDrawIsPermutation(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	const total = 64 * 2 // 64 torus links x 2 switches
	plan, err := RandomChannels(topo, 2, total, 9)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[pcs.Channel]bool, total)
	for _, ch := range plan.Channels {
		if seen[ch] {
			t.Fatalf("full draw repeated channel %+v", ch)
		}
		seen[ch] = true
	}
	if len(seen) != total {
		t.Fatalf("full draw covered %d of %d channels", len(seen), total)
	}
}

// TestRandomChannelsDuplicateLinks: with several wave switches the same link
// legitimately appears under different switches; the draw must keep those
// channels distinct while never repeating a (link, switch) pair.
func TestRandomChannelsDuplicateLinks(t *testing.T) {
	topo := topology.MustCube([]int{2}, false) // single link each way
	plan, err := RandomChannels(topo, 4, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	byLink := map[topology.LinkID]int{}
	seen := map[pcs.Channel]bool{}
	for _, ch := range plan.Channels {
		if seen[ch] {
			t.Fatalf("duplicate channel %+v", ch)
		}
		seen[ch] = true
		byLink[ch.Link]++
	}
	for link, n := range byLink {
		if n != 4 {
			t.Fatalf("link %d drawn %d times, want once per switch (4)", link, n)
		}
	}
}

// TestRandomChannelsPrefixConsistent: stopping the Fisher–Yates walk earlier
// must not change the channels already drawn — a count-k plan is the prefix
// of the count-n plan for the same seed. (This is also what makes fault
// sweeps comparable across counts.)
func TestRandomChannelsPrefixConsistent(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	long, err := RandomChannels(topo, 2, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	short, err := RandomChannels(topo, 2, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range short.Channels {
		if ch != long.Channels[i] {
			t.Fatalf("prefix diverged at %d: %+v vs %+v", i, ch, long.Channels[i])
		}
	}
}

func TestRandomScheduleShape(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	sch, err := RandomSchedule(topo, 2, 5, 100, 30, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Events) != 5 {
		t.Fatalf("events = %d, want 5", len(sch.Events))
	}
	plan, _ := RandomChannels(topo, 2, 5, 7)
	for i, ev := range sch.Events {
		if want := int64(100 + 30*i); ev.Cycle != want {
			t.Fatalf("event %d at cycle %d, want %d", i, ev.Cycle, want)
		}
		if ev.Repair != 400 {
			t.Fatalf("event %d repair = %d", i, ev.Repair)
		}
		if ev.Ch != plan.Channels[i] {
			t.Fatalf("event %d channel %+v, want the RandomChannels draw %+v", i, ev.Ch, plan.Channels[i])
		}
	}
}

func TestRandomScheduleValidation(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	if _, err := RandomSchedule(topo, 2, 5, 0, 10, 0, 1); err == nil {
		t.Fatal("start 0 accepted (fault events must be strictly in the future)")
	}
	if _, err := RandomSchedule(topo, 2, 5, 10, -1, 0, 1); err == nil {
		t.Fatal("negative spacing accepted")
	}
	if _, err := RandomSchedule(topo, 2, 5, 10, 0, -1, 1); err == nil {
		t.Fatal("negative repair accepted")
	}
	if _, err := RandomSchedule(topo, 2, 999, 10, 0, 0, 1); err == nil {
		t.Fatal("oversized count accepted")
	}
}
