package traffic

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

func torus88() topology.Geometry { return topology.MustCube([]int{8, 8}, true) }

func TestNewPatternNames(t *testing.T) {
	topo := torus88()
	for _, name := range []string{"uniform", "transpose", "bitreverse", "bitcomplement", "tornado", "neighbor", "hotspot"} {
		p, err := NewPattern(name, topo)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
	}
	if _, err := NewPattern("zipf", topo); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestNewPatternConstraints(t *testing.T) {
	rect := topology.MustCube([]int{8, 4}, true)
	if _, err := NewPattern("transpose", rect); err == nil {
		t.Fatal("transpose on non-square accepted")
	}
	odd := topology.MustCube([]int{3, 3}, false)
	if _, err := NewPattern("bitreverse", odd); err == nil {
		t.Fatal("bitreverse on 9 nodes accepted")
	}
	if _, err := NewPattern("bitcomplement", odd); err == nil {
		t.Fatal("bitcomplement on 9 nodes accepted")
	}
}

func TestUniformNeverSelf(t *testing.T) {
	rng := sim.NewRNG(1)
	u := Uniform{N: 16}
	for i := 0; i < 2000; i++ {
		src := topology.Node(i % 16)
		if u.Pick(src, rng) == src {
			t.Fatal("uniform picked self")
		}
	}
}

func TestUniformCoversAll(t *testing.T) {
	rng := sim.NewRNG(2)
	u := Uniform{N: 8}
	seen := map[topology.Node]bool{}
	for i := 0; i < 1000; i++ {
		seen[u.Pick(0, rng)] = true
	}
	if len(seen) != 7 {
		t.Fatalf("uniform covered %d of 7 destinations", len(seen))
	}
}

func TestTranspose(t *testing.T) {
	topo := torus88()
	p, _ := NewPattern("transpose", topo)
	src := topo.NodeAt([]int{2, 5})
	if got, want := p.Pick(src, nil), topo.NodeAt([]int{5, 2}); got != want {
		t.Fatalf("transpose: %d, want %d", got, want)
	}
	diag := topo.NodeAt([]int{3, 3})
	if p.Pick(diag, nil) != diag {
		t.Fatal("transpose of diagonal should be self")
	}
}

func TestBitReverse(t *testing.T) {
	p := BitReverse{N: 64}
	// 64 nodes -> 6 bits; 0b000001 -> 0b100000.
	if got := p.Pick(1, nil); got != 32 {
		t.Fatalf("bitreverse(1) = %d, want 32", got)
	}
	if got := p.Pick(0, nil); got != 0 {
		t.Fatalf("bitreverse(0) = %d, want 0", got)
	}
	// Involution property.
	for n := topology.Node(0); n < 64; n++ {
		if p.Pick(p.Pick(n, nil), nil) != n {
			t.Fatalf("bitreverse not an involution at %d", n)
		}
	}
}

func TestBitComplement(t *testing.T) {
	p := BitComplement{N: 64}
	if got := p.Pick(0, nil); got != 63 {
		t.Fatalf("complement(0) = %d", got)
	}
	if got := p.Pick(21, nil); got != 42 {
		t.Fatalf("complement(21) = %d", got)
	}
}

func TestTornadoDistance(t *testing.T) {
	topo := torus88()
	p, _ := NewPattern("tornado", topo)
	// Tornado distance on an 8-ary torus: 3 hops per dimension (k/2 - 1).
	for src := topology.Node(0); int(src) < topo.Nodes(); src += 5 {
		dst := p.Pick(src, nil)
		if d := topo.Distance(src, dst); d != 6 {
			t.Fatalf("tornado distance = %d, want 6", d)
		}
	}
}

func TestNeighborAdjacent(t *testing.T) {
	for _, topo := range []topology.Topology{torus88(), topology.MustCube([]int{4, 4}, false)} {
		p, _ := NewPattern("neighbor", topo)
		for src := topology.Node(0); int(src) < topo.Nodes(); src++ {
			dst := p.Pick(src, nil)
			if d := topo.Distance(src, dst); d != 1 {
				t.Fatalf("%s: neighbor distance = %d", topo.Name(), d)
			}
		}
	}
}

func TestHotspotFraction(t *testing.T) {
	rng := sim.NewRNG(3)
	h := Hotspot{N: 64, Spot: 10, Fraction: 0.3}
	hits := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if h.Pick(0, rng) == 10 {
			hits++
		}
	}
	frac := float64(hits) / draws
	// 0.3 direct + ~0.7/63 uniform spillover.
	if frac < 0.27 || frac > 0.36 {
		t.Fatalf("hotspot fraction = %g", frac)
	}
}

func TestLocalityValidation(t *testing.T) {
	if _, err := NewLocality(Uniform{N: 8}, 8, 0, 0.5, 10); err == nil {
		t.Fatal("zero working set accepted")
	}
	if _, err := NewLocality(Uniform{N: 8}, 8, 2, 1.5, 10); err == nil {
		t.Fatal("reuse > 1 accepted")
	}
}

// TestLocalityRefusesNegativePeriod: Pick redraws only while Period > 0,
// so a negative period would silently mean "never"; it is refused by name.
func TestLocalityRefusesNegativePeriod(t *testing.T) {
	_, err := NewLocality(Uniform{N: 8}, 8, 2, 0.5, -1)
	if err == nil || !strings.Contains(err.Error(), "redraw period") {
		t.Fatalf("period -1: err = %v, want a refusal naming the redraw period", err)
	}
	if _, err := NewLocality(Uniform{N: 8}, 8, 2, 0.5, 0); err != nil {
		t.Fatalf("period 0 (never redraw) refused: %v", err)
	}
}

func TestLocalityReuseConcentration(t *testing.T) {
	rng := sim.NewRNG(7)
	l, err := NewLocality(Uniform{N: 64}, 64, 4, 0.9, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[topology.Node]int{}
	const draws = 5000
	for i := 0; i < draws; i++ {
		counts[l.Pick(3, rng)]++
	}
	// With 90% reuse over a 4-entry working set, the top 4 destinations
	// should absorb close to 90% of traffic.
	top := make([]int, 0, len(counts))
	for _, c := range counts {
		top = append(top, c)
	}
	// Selection of the 4 largest.
	sum4 := 0
	for i := 0; i < 4; i++ {
		maxIdx := 0
		for j, c := range top {
			if c > top[maxIdx] {
				maxIdx = j
			}
		}
		sum4 += top[maxIdx]
		top[maxIdx] = -1
	}
	if frac := float64(sum4) / draws; frac < 0.85 {
		t.Fatalf("working-set concentration = %g, want >= 0.85", frac)
	}
}

func TestLocalityZeroReuseMatchesBase(t *testing.T) {
	rng := sim.NewRNG(9)
	l, _ := NewLocality(Uniform{N: 16}, 16, 2, 0, 0)
	for i := 0; i < 500; i++ {
		if l.Pick(5, rng) == 5 {
			t.Fatal("locality with uniform base picked self")
		}
	}
}

func TestLocalityRedraw(t *testing.T) {
	rng := sim.NewRNG(11)
	l, _ := NewLocality(Uniform{N: 256}, 256, 2, 1.0, 10)
	first := map[topology.Node]bool{}
	for i := 0; i < 10; i++ {
		first[l.Pick(0, rng)] = true
	}
	if len(first) > 2 {
		t.Fatalf("working set leaked: %d distinct", len(first))
	}
	// After the period, a redraw happens; over many periods we should see
	// far more than 2 destinations.
	all := map[topology.Node]bool{}
	for i := 0; i < 500; i++ {
		all[l.Pick(0, rng)] = true
	}
	if len(all) <= 2 {
		t.Fatal("working set never redrawn")
	}
}

func TestLengthDists(t *testing.T) {
	rng := sim.NewRNG(13)
	f := Fixed{L: 32}
	if f.Draw(rng) != 32 || f.Mean() != 32 {
		t.Fatal("fixed dist wrong")
	}
	b := Bimodal{Short: 4, Long: 128, PLong: 0.25}
	if got, want := b.Mean(), 4*0.75+128*0.25; got != want {
		t.Fatalf("bimodal mean = %g, want %g", got, want)
	}
	longs := 0
	for i := 0; i < 10000; i++ {
		l := b.Draw(rng)
		if l != 4 && l != 128 {
			t.Fatalf("bimodal drew %d", l)
		}
		if l == 128 {
			longs++
		}
	}
	if longs < 2200 || longs > 2800 {
		t.Fatalf("bimodal long fraction off: %d/10000", longs)
	}
	u := UniformLen{Min: 8, Max: 16}
	if u.Mean() != 12 {
		t.Fatalf("ulen mean = %g", u.Mean())
	}
	for i := 0; i < 1000; i++ {
		l := u.Draw(rng)
		if l < 8 || l > 16 {
			t.Fatalf("ulen drew %d", l)
		}
	}
}

func TestGeneratorLoad(t *testing.T) {
	g, err := NewGenerator(Uniform{N: 64}, Fixed{L: 16}, 0.32, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.MsgRate(), 0.02; got != want {
		t.Fatalf("MsgRate = %g, want %g", got, want)
	}
	msgs := 0
	flits := 0
	const cycles = 20000
	for c := 0; c < cycles; c++ {
		g.Tick(func(src, dst topology.Node, length int) {
			msgs++
			flits += length
			if src == dst {
				t.Fatal("generator produced self message")
			}
		})
	}
	applied := float64(flits) / float64(cycles) / 64
	if applied < 0.30 || applied > 0.34 {
		t.Fatalf("applied load = %g, want about 0.32", applied)
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(Uniform{N: 4}, Fixed{L: 8}, -1, 4, 1); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := NewGenerator(Uniform{N: 4}, Fixed{L: 0}, 0.1, 4, 1); err == nil {
		t.Fatal("zero mean length accepted")
	}
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := NewGenerator(Uniform{N: 4}, Fixed{L: 8}, load, 4, 1)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(load)) {
			t.Fatalf("load %g: err = %v, want a refusal naming the value", load, err)
		}
	}
	if _, err := NewLocality(Uniform{N: 4}, 4, 2, math.NaN(), 0); err == nil {
		t.Fatal("NaN reuse probability accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	collect := func() []int {
		g, _ := NewGenerator(Uniform{N: 16}, UniformLen{Min: 1, Max: 32}, 0.5, 16, 42)
		var out []int
		for c := 0; c < 200; c++ {
			g.Tick(func(src, dst topology.Node, length int) {
				out = append(out, int(src)*10000+int(dst)*100+length)
			})
		}
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) {
		t.Fatal("generator runs differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator not deterministic")
		}
	}
}

// TestGapThresholdsExact: each gap threshold ⌊(1-q)^k·2^53⌋ equals the
// exact big-integer value r^k / 2^(53(k-1)), r = (1-q)·2^53, for the
// clrp_reuse rate 0.0016, a rate with a long table and a dyadic one.
func TestGapThresholdsExact(t *testing.T) {
	for _, p := range []float64{0.0016, 0.02, 0.5} {
		cut := sim.BoolCut(p)
		s := newGapSampler(cut)
		r := new(big.Int).SetUint64(1<<53 - cut)
		pow := new(big.Int).Set(r) // r^k
		for k := 1; k <= len(s.t); k++ {
			want := new(big.Int).Rsh(pow, uint(53*(k-1)))
			if !want.IsUint64() || want.Uint64() != s.t[k-1] {
				t.Fatalf("p %g: t[%d] = %d, exact %s", p, k-1, s.t[k-1], want)
			}
			pow.Mul(pow, r)
		}
		if last := s.t[len(s.t)-1]; last >= 1<<53>>6 && len(s.t) < gapTableMax {
			t.Fatalf("p %g: the table ends at P(gap > %d) = %g, not below 1/64", p, len(s.t), float64(last)/(1<<53))
		}
	}
}

// TestGapStatistics: a million gaps at a fixed seed have the geometric
// mean (1/q), variance ((1-q)/q^2) and share of gaps equal to 1 (q), each
// within 4 standard errors. Rate 0.02 redraws past its table, and 1e-5
// draws its tail from a second sampler.
func TestGapStatistics(t *testing.T) {
	for _, c := range []struct {
		p    float64
		gaps int
	}{{0.02, 1_000_000}, {0.5, 1_000_000}, {1e-5, 200_000}} {
		s, rng := newGapSampler(sim.BoolCut(c.p)), sim.NewRNG(17)
		if (s.tail != nil) != (c.p == 1e-5) {
			t.Fatalf("p %g: tail sampler %v", c.p, s.tail != nil)
		}
		var sum, sumSq, ones float64
		for range c.gaps {
			g := float64(s.draw(rng))
			sum += g
			sumSq += g * g
			if g == 1 {
				ones++
			}
		}
		n, q := float64(c.gaps), c.p
		mean := sum / n
		variance := sumSq/n - mean*mean
		wantVar := (1 - q) / (q * q)
		// The fourth central moment of the geometric is wantVar^2·(9 + q^2/(1-q)).
		for _, m := range []struct {
			name           string
			got, want, err float64
		}{
			{"mean", mean, 1 / q, math.Sqrt(wantVar / n)},
			{"variance", variance, wantVar, wantVar * math.Sqrt((8+q*q/(1-q))/n)},
			{"share of 1", ones / n, q, math.Sqrt(q * (1 - q) / n)},
		} {
			if math.Abs(m.got-m.want) > 4*m.err {
				t.Errorf("p %g: %s %g, want %g ± 4·%g", c.p, m.name, m.got, m.want, m.err)
			}
		}
	}
}

type genMsg struct {
	tick     int
	src, dst topology.Node
	length   int
}

// tickAll runs ticks Ticks of g and returns what they emit, numbering the
// ticks from first.
func tickAll(g *Generator, first, ticks int) []genMsg {
	var out []genMsg
	for c := first; c < first+ticks; c++ {
		g.Tick(func(src, dst topology.Node, l int) { out = append(out, genMsg{c, src, dst, l}) })
	}
	return out
}

// TestTickHostOrder: within one tick the starting hosts come in ascending
// order, at a rate where most ticks start several.
func TestTickHostOrder(t *testing.T) {
	g, err := NewGenerator(Uniform{N: 64}, Fixed{L: 4}, 1, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	msgs := tickAll(g, 0, 500)
	if len(msgs) < 500*64/8 {
		t.Fatalf("%d messages in 500 ticks at rate 1/4 on 64 hosts", len(msgs))
	}
	for i := 1; i < len(msgs); i++ {
		if a, b := msgs[i-1], msgs[i]; a.tick == b.tick && a.src >= b.src {
			t.Fatalf("tick %d emits host %d after host %d", b.tick, b.src, a.src)
		}
	}
}

// TestTickAllocs: after the first Tick, which draws the calendar, Tick
// allocates nothing.
func TestTickAllocs(t *testing.T) {
	g, err := NewGenerator(Uniform{N: 256}, Fixed{L: 16}, 0.5, 256, 4)
	if err != nil {
		t.Fatal(err)
	}
	noop := func(_, _ topology.Node, _ int) {}
	g.Tick(noop)
	if n := testing.AllocsPerRun(1000, func() { g.Tick(noop) }); n != 0 {
		t.Fatalf("Tick allocates %.2f times per call", n)
	}
}

// TestTickRateEdges: rate 0 emits and draws nothing; a rate of 1 or more
// starts every host on every tick, in host order, drawing only Pick and
// Draw; a rate of one start in 2^53 ticks, or below, builds and draws its
// calendar at once and starts nothing.
func TestTickRateEdges(t *testing.T) {
	const nodes = 16
	for _, load := range []float64{0, 2, 3} { // mean length 2: rates 0, 1, 1.5
		g, err := NewGenerator(Uniform{N: nodes}, UniformLen{Min: 1, Max: 3}, load, nodes, 9)
		if err != nil {
			t.Fatal(err)
		}
		ref := sim.NewRNG(9)
		var want []genMsg
		for c := 0; c < 50 && load > 0; c++ {
			for n := range topology.Node(nodes) {
				dst := g.Pattern.Pick(n, ref)
				want = append(want, genMsg{c, n, dst, g.Length.Draw(ref)})
			}
		}
		if got := tickAll(g, 0, 50); !slices.Equal(got, want) {
			t.Fatalf("load %g: Tick emitted %d messages, want %d (or they differ)", load, len(got), len(want))
		}
		if g.rng.State() != ref.State() {
			t.Fatalf("load %g: final RNG state %#x, want %#x", load, g.rng.State(), ref.State())
		}
	}
	for _, rate := range []float64{1.0 / (1 << 53), 1e-300} {
		g, err := NewGenerator(Uniform{N: nodes}, Fixed{L: 2}, 2*rate, nodes, 9)
		if err != nil {
			t.Fatal(err)
		}
		if got := tickAll(g, 0, 1000); len(got) != 0 {
			t.Fatalf("rate %g: %d messages in 1000 ticks", rate, len(got))
		}
	}
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

// decodeState decodes a stateBytes encoding into g.
func decodeState(g *Generator, data []byte) error {
	c, err := snapshot.Open(data)
	if err != nil {
		return err
	}
	if err := g.State(c); err != nil {
		return err
	}
	return c.Close()
}

// TestGeneratorStateRoundTrip: a generator decoded from another's state in
// the middle of a window emits what the original emits from there on and
// ends in the same state, for every rate regime, a locality pattern with
// redraws, and a generator never ticked (its calendar not yet drawn).
func TestGeneratorStateRoundTrip(t *testing.T) {
	const nodes = 64
	build := func(load float64) *Generator {
		l, err := NewLocality(Hotspot{N: nodes, Spot: 5, Fraction: 0.2}, nodes, 3, 0.6, 7)
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGenerator(l, Bimodal{Short: 1, Long: 3, PLong: 0.5}, load, nodes, 5)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, load := range []float64{0, 1e-4, 0.1, 1.5, 2, 4} {
		for _, at := range []int{0, 1, 137} {
			g := build(load)
			tickAll(g, 0, at)
			r := build(load)
			if err := decodeState(r, stateBytes(t, g)); err != nil {
				t.Fatalf("load %g at tick %d: %v", load, at, err)
			}
			want, got := tickAll(g, at, 300), tickAll(r, at, 300)
			if !slices.Equal(got, want) {
				t.Fatalf("load %g at tick %d: the decoded generator emits %d messages, the original %d (or they differ)", load, at, len(got), len(want))
			}
			if !bytes.Equal(stateBytes(t, r), stateBytes(t, g)) {
				t.Fatalf("load %g at tick %d: states differ after the window", load, at)
			}
		}
	}

	// A start in the past, and a calendar for load 0, are refused by name.
	g := build(0.1)
	tickAll(g, 0, 3)
	data := stateBytes(t, g)
	g.cal.due[7] = g.cal.now - 2
	if err := decodeState(build(0.1), stateBytes(t, g)); err == nil || !strings.Contains(err.Error(), "host 7 starts 2 ticks ago") {
		t.Fatalf("a start in the past: err = %v", err)
	}
	if err := decodeState(build(0), data); err == nil || !strings.Contains(err.Error(), "start calendar") {
		t.Fatalf("load 0: err = %v, want a refused calendar", err)
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

// BenchmarkGeneratorTick: one op is one cycle of Tick on the open-loop
// source of a clrp_reuse-shaped run (16x16 hosts, load 0.2, 128-flit
// messages, locality working sets drawn up front so that no timed Pick
// allocates one); ns/host-cycle divides by the hosts.
func BenchmarkGeneratorTick(b *testing.B) {
	l, err := NewLocality(Uniform{N: 256}, 256, 4, 0.8, 0)
	if err != nil {
		b.Fatal(err)
	}
	for src := range topology.Node(256) {
		l.Pick(src, sim.NewRNG(uint64(src)))
	}
	g, err := NewGenerator(l, Fixed{L: 128}, 0.2, 256, 2)
	if err != nil {
		b.Fatal(err)
	}
	noop := func(_, _ topology.Node, _ int) {}
	g.Tick(noop) // draws the calendar
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		g.Tick(noop)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.nodes), "ns/host-cycle")
}
