package traffic

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
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

// TestTickMatchesBoolLoop checks Tick against the loop it replaces: a
// rng.Bool(MsgRate()) test per node, then Pick and Draw for each firing
// node. The emitted (src, dst, len) sequence and the final RNG state must
// be equal. Mean length 2 makes each rate exact: rates on the 2^-53 grid,
// tiny rates, rates just below 1, and the no-draw rates 0, 1 and above 1.
// The patterns and lengths that draw from the same stream (hotspot,
// locality, bimodal, uniform lengths) interleave with the per-node draws.
func TestTickMatchesBoolLoop(t *testing.T) {
	const nodes = 64
	rates := []float64{
		0, 1.0 / (1 << 53), 3.0 / (1 << 53), 1e-300, math.SmallestNonzeroFloat64,
		0.013, 0.25, 0x0F5C28F5C28F5C / (1 << 53), math.Nextafter(1, 0), 1, 1.5,
	}
	patterns := map[string]func() Pattern{
		"uniform": func() Pattern { return Uniform{N: nodes} },
		"hotspot": func() Pattern { return Hotspot{N: nodes, Spot: 5, Fraction: 0.2} },
		"locality": func() Pattern {
			l, err := NewLocality(Uniform{N: nodes}, nodes, 3, 0.6, 7)
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
	}
	lengths := []LengthDist{Bimodal{Short: 1, Long: 3, PLong: 0.5}, UniformLen{Min: 1, Max: 3}}
	type msg struct {
		src, dst topology.Node
		length   int
	}
	for name, pattern := range patterns {
		for _, length := range lengths {
			for _, rate := range rates {
				g, err := NewGenerator(pattern(), length, 2*rate, nodes, 9)
				if err != nil {
					t.Fatal(err)
				}
				if g.MsgRate() != rate {
					t.Fatalf("MsgRate %g, want %g", g.MsgRate(), rate)
				}
				refPattern, ref := pattern(), sim.NewRNG(9)
				var got, want []msg
				for c := 0; c < 50; c++ {
					g.Tick(func(src, dst topology.Node, l int) { got = append(got, msg{src, dst, l}) })
					for n := 0; n < nodes; n++ {
						if !ref.Bool(rate) {
							continue
						}
						src := topology.Node(n)
						dst := refPattern.Pick(src, ref)
						want = append(want, msg{src, dst, length.Draw(ref)})
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%s rate %g: Tick emitted %d messages, the Bool loop %d (or they differ)", name, length.Name(), rate, len(got), len(want))
				}
				if g.rng.State() != ref.State() {
					t.Fatalf("%s/%s rate %g: final RNG state %#x, Bool loop %#x", name, length.Name(), rate, g.rng.State(), ref.State())
				}
			}
		}
	}
}
