package traffic

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

type aheadMsg struct {
	cycle    int64
	src, dst topology.Node
	length   int
}

// stateBytes is the generator's snapshot encoding.
func stateBytes(t testing.TB, g *Generator) []byte {
	t.Helper()
	var buf bytes.Buffer
	c, err := snapshot.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.State(c); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// aheadCase builds two identical generators for one comparison.
type aheadCase struct {
	name  string
	build func(t *testing.T) *Generator
}

func aheadCases() []aheadCase {
	torus := topology.MustCube([]int{8, 8}, true)
	tree := topology.MustFatTree(4, 2)
	gen := func(p Pattern, l LengthDist, load float64, hosts int) func(t *testing.T) *Generator {
		return func(t *testing.T) *Generator {
			g, err := NewGenerator(p, l, load, hosts, 31)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	pattern := func(name string, topo topology.Topology) Pattern {
		p, err := NewPattern(name, topo)
		if err != nil {
			panic(err)
		}
		return p
	}
	local := func(base Pattern, hosts, period int) func(t *testing.T) *Generator {
		return func(t *testing.T) *Generator {
			l, err := NewLocality(base, hosts, 3, 0.7, period)
			if err != nil {
				t.Fatal(err)
			}
			return gen(l, Fixed{L: 16}, 0.4, hosts)(t)
		}
	}
	return []aheadCase{
		{"uniform", gen(pattern("uniform", torus), Fixed{L: 16}, 0.3, 64)},
		{"hotspot", gen(pattern("hotspot", torus), Fixed{L: 16}, 0.3, 64)},
		{"tornado", gen(pattern("tornado", torus), Fixed{L: 16}, 0.3, 64)},
		{"near-fattree-4/2", gen(pattern("near", tree), Fixed{L: 8}, 0.2, tree.Hosts())},
		{"locality-redraw", local(pattern("uniform", torus), 64, 5)},
		{"locality-near-fattree", local(pattern("near", tree), tree.Hosts(), 2)},
		{"bimodal", gen(pattern("uniform", torus), Bimodal{Short: 4, Long: 64, PLong: 0.3}, 0.5, 64)},
		{"rate-0", gen(pattern("uniform", torus), Fixed{L: 16}, 0, 64)},
		{"rate-1", gen(pattern("uniform", torus), Fixed{L: 2}, 2, 64)},
		{"rate-above-1", gen(pattern("transpose", torus), Bimodal{Short: 1, Long: 3, PLong: 0.5}, 5, 64)},
	}
}

// checkRunAhead ticks one generator serially and the other through a
// run-ahead source for the same window, and compares the (cycle, src, dst,
// len) sequences and the final snapshot state bytes. warm serial cycles
// first move both off the seed (and draw locality working sets).
func checkRunAhead(t *testing.T, c aheadCase, warm, window int64) {
	t.Helper()
	serial, ahead := c.build(t), c.build(t)
	for range warm {
		serial.Tick(func(_, _ topology.Node, _ int) {})
		ahead.Tick(func(_, _ topology.Node, _ int) {})
	}
	var want, got []aheadMsg
	for cyc := warm; cyc < warm+window; cyc++ {
		serial.Tick(func(src, dst topology.Node, l int) { want = append(want, aheadMsg{cyc, src, dst, l}) })
	}
	src := ahead.RunAhead(warm, window)
	defer src.Stop()
	for cyc := warm; cyc < warm+window; cyc++ {
		src.Tick(func(s, dst topology.Node, l int) { got = append(got, aheadMsg{cyc, s, dst, l}) })
	}
	if !slices.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: replay emitted %d messages, serial Tick %d; first difference at message %d", c.name, len(got), len(want), i)
	}
	if !bytes.Equal(stateBytes(t, ahead), stateBytes(t, serial)) {
		t.Fatalf("%s: final generator state differs from serial Tick's", c.name)
	}
}

// TestRunAheadMatchesTick: producer plus replay emits what serial Tick
// emits, cycle by cycle, and leaves the generator in the same state, over a
// window of several batches, for every pattern family, locality with a
// redraw period, bimodal lengths, and the no-draw rates 0, 1 and above 1.
func TestRunAheadMatchesTick(t *testing.T) {
	for _, c := range aheadCases() {
		g := c.build(t)
		per := int64((aheadDraws + g.nodes - 1) / g.nodes)
		checkRunAhead(t, c, 13, 2*per+per/3)
	}
}

// TestRunAheadShortWindow: a window shorter than one batch, and a window of
// one cycle, replay exactly.
func TestRunAheadShortWindow(t *testing.T) {
	for _, c := range aheadCases() {
		checkRunAhead(t, c, 3, 7)
		checkRunAhead(t, c, 0, 1)
	}
}

// TestRunAheadStopEarly: stopping a source mid-window, with the producer
// blocked on a full set of buffers, returns, and the generator stays exact
// at the cycle boundary: ticking it serially from there matches a serial
// run throughout.
func TestRunAheadStopEarly(t *testing.T) {
	c := aheadCases()[4] // locality with redraws
	serial, ahead := c.build(t), c.build(t)
	src := ahead.RunAhead(0, 1_000_000_000)
	for range 100 {
		serial.Tick(func(_, _ topology.Node, _ int) {})
		src.Tick(func(_, _ topology.Node, _ int) {})
	}
	src.Stop()
	if !bytes.Equal(stateBytes(t, ahead), stateBytes(t, serial)) {
		t.Fatal("generator state after Stop differs from serial Tick's")
	}
	var want, got []aheadMsg
	for range 50 {
		serial.Tick(func(s, d topology.Node, l int) { want = append(want, aheadMsg{0, s, d, l}) })
		ahead.Tick(func(s, d topology.Node, l int) { got = append(got, aheadMsg{0, s, d, l}) })
	}
	if !slices.Equal(got, want) {
		t.Fatal("serial Tick after Stop diverged")
	}
}

// TestRunAheadPanics: ticking past the window, or a generator that drew
// outside the replay, panics with the cycle number.
func TestRunAheadPanics(t *testing.T) {
	expectPanic := func(want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Fatalf("panic %v, want one containing %q", r, want)
			}
		}()
		f()
	}
	noop := func(_, _ topology.Node, _ int) {}

	g := aheadCases()[0].build(t)
	src := g.RunAhead(40, 2)
	src.Tick(noop)
	src.Tick(noop)
	expectPanic("cycle 42 is past the window", func() { src.Tick(noop) })
	src.Stop()

	g = aheadCases()[0].build(t)
	src = g.RunAhead(100, 10)
	src.Tick(noop)
	g.rng.Uint64() // a draw the producer's clone did not make
	expectPanic("diverged from the producer at cycle 101", func() { src.Tick(noop) })
	src.Stop()
}

// TestRunAheadRecyclesBatches: the batch buffers circulate, so the
// producer's allocations do not grow with the window. A window of 50
// batches allocates no more than the clone, the channels, the four
// buffers and their growth.
func TestRunAheadRecyclesBatches(t *testing.T) {
	g := aheadCases()[0].build(t)
	per := int64((aheadDraws + g.nodes - 1) / g.nodes)
	noop := func(_, _ topology.Node, _ int) {}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	src := g.RunAhead(0, 50*per)
	for range 50 * per {
		src.Tick(noop)
	}
	src.Stop()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 100 {
		t.Fatalf("a 50-batch window allocated %d times; batch buffers are not being recycled", n)
	}
}

// TestZeroAllocPick: no pattern allocates per message, bare or wrapped in a
// Locality whose working sets are drawn (a redraw builds a new set, so the
// wrapper is checked with redraws off).
func TestZeroAllocPick(t *testing.T) {
	torus := topology.MustCube([]int{8, 8}, true)
	rng := sim.NewRNG(5)
	for _, name := range []string{"uniform", "transpose", "bitreverse", "bitcomplement", "tornado", "neighbor", "hotspot", "near"} {
		base, err := NewPattern(name, torus)
		if err != nil {
			t.Fatal(err)
		}
		local, err := NewLocality(base, torus.Hosts(), 4, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Pattern{base, local} {
			pickAll := func() {
				for src := topology.Node(0); int(src) < torus.Hosts(); src++ {
					p.Pick(src, rng)
				}
			}
			pickAll() // draws the working sets
			if n := testing.AllocsPerRun(50, pickAll); n != 0 {
				t.Errorf("%s: %.1f allocations per %d Picks, want 0", p.Name(), n, torus.Hosts())
			}
		}
	}
}

// reuseGenerator is the open-loop source of a clrp_reuse-shaped run: 16x16
// hosts, load 0.2, 128-flit messages. locality adds its working sets, drawn
// up front so that no timed Pick allocates one.
func reuseGenerator(b *testing.B, locality bool) *Generator {
	var p Pattern = Uniform{N: 256}
	if locality {
		l, err := NewLocality(p, 256, 4, 0.8, 0)
		if err != nil {
			b.Fatal(err)
		}
		for src := range topology.Node(256) {
			l.Pick(src, sim.NewRNG(uint64(src)))
		}
		p = l
	}
	g, err := NewGenerator(p, Fixed{L: 128}, 0.2, 256, 2)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkGeneratorTick is the serial scan: one op is one cycle of Tick on
// a 16x16 clrp_reuse-shaped source; ns/host-cycle divides by the hosts.
func BenchmarkGeneratorTick(b *testing.B) {
	g := reuseGenerator(b, true)
	noop := func(_, _ topology.Node, _ int) {}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		g.Tick(noop)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.nodes), "ns/host-cycle")
}

// BenchmarkAheadReplay is the consuming side of a run-ahead source: one op
// replays one cycle from batches the producer filled beforehand (skip,
// emit, end-of-cycle check). The source is stateless apart from its RNG,
// so rewinding the RNG restarts the window.
func BenchmarkAheadReplay(b *testing.B) {
	g := reuseGenerator(b, false)
	const cycles = 4096
	start := g.rng.State()
	var batches []*batch
	per := int64((aheadDraws + g.nodes - 1) / g.nodes)
	producer := g.clone()
	for left := int64(cycles); left > 0; left -= per {
		bt := new(batch)
		bt.fill(producer, min(per, left))
		batches = append(batches, bt)
	}
	noop := func(_, _ topology.Node, _ int) {}
	b.ReportAllocs()
	b.ResetTimer()
	k, i := 0, 0
	for range b.N {
		if i == len(batches[k].ends) {
			k, i = k+1, 0
			if k == len(batches) {
				k = 0
				g.rng.Seed(start)
			}
		}
		if !g.replay(batches[k], i, 1, noop) {
			b.Fatal("replay diverged")
		}
		i++
	}
}
