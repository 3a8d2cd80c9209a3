package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnRoughlyUniform(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want*9/10 || c > want*11/10 {
			t.Errorf("bucket %d: got %d, want about %d", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", v)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(11)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / draws
	if frac < 0.28 || frac > 0.32 {
		t.Fatalf("Bool(0.3) hit fraction %g, want about 0.3", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	check := func(n uint8) bool {
		size := int(n%32) + 1
		p := r.Perm(size)
		if len(p) != size {
			return false
		}
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSplitStateMatchesSplit: SplitState(i) is the state of the child the
// (i+1)-th Split call derives, and Skip(n) leaves the parent where n Split
// calls do.
func TestSplitStateMatchesSplit(t *testing.T) {
	base := NewRNG(77)
	r := NewRNG(77)
	for i := uint64(0); i < 50; i++ {
		if got, want := base.SplitState(i), r.Split().State(); got != want {
			t.Fatalf("SplitState(%d) = %#x, Split gives %#x", i, got, want)
		}
	}
	base.Skip(50)
	if base.State() != r.State() {
		t.Fatalf("Skip(50) leaves %#x, 50 splits leave %#x", base.State(), r.State())
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(21)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and split child matched %d/100 draws", same)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now = %d", c.Now())
	}
	for i := int64(1); i <= 5; i++ {
		if got := c.Tick(); got != i {
			t.Fatalf("Tick %d returned %d", i, got)
		}
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset did not rewind: Now = %d", c.Now())
	}
}

func TestWatchdogQuietWhenIdle(t *testing.T) {
	w := &Watchdog{MaxAge: 10, StallWindow: 3}
	for cyc := int64(0); cyc < 100; cyc++ {
		if err := w.Check(cyc, false, 0, 0); err != nil {
			t.Fatalf("watchdog fired with no work in flight: %v", err)
		}
	}
}

func TestWatchdogStarvation(t *testing.T) {
	w := &Watchdog{MaxAge: 10}
	err := w.Check(50, true, 11, 1) // progress does not mask starvation
	if err == nil {
		t.Fatal("starvation not detected")
	}
	if es, ok := err.(*ErrStuck); !ok || es.OldestAge != 11 {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestWatchdogStall(t *testing.T) {
	w := &Watchdog{StallWindow: 3}
	for i := 0; i < 2; i++ {
		if err := w.Check(int64(i), false, 1, 1); err != nil {
			t.Fatalf("stall fired early at %d: %v", i, err)
		}
	}
	if err := w.Check(2, false, 1, 1); err == nil {
		t.Fatal("stall not detected after window")
	}
}

func TestWatchdogProgressResetsStall(t *testing.T) {
	w := &Watchdog{StallWindow: 2}
	if err := w.Check(0, false, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(1, true, 2, 1); err != nil {
		t.Fatal(err)
	}
	// Run of stalls restarts from zero after the progress cycle.
	if err := w.Check(2, false, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Check(3, false, 4, 1); err == nil {
		t.Fatal("stall not detected after progress reset")
	}
}

func TestWatchdogDisabled(t *testing.T) {
	w := &Watchdog{} // both checks disabled
	for cyc := int64(0); cyc < 1000; cyc++ {
		if err := w.Check(cyc, false, cyc+1, 5); err != nil {
			t.Fatalf("disabled watchdog fired: %v", err)
		}
	}
}

// TestStepMatchesUint64 checks that the bare-state draw and the generator's
// draw are one stream.
func TestStepMatchesUint64(t *testing.T) {
	r := NewRNG(77)
	state := r.State()
	for i := 0; i < 1000; i++ {
		var v uint64
		state, v = Step(state)
		if want := r.Uint64(); v != want || state != r.State() {
			t.Fatalf("draw %d: Step gave (%#x, %#x), Uint64 (%#x, %#x)", i, state, v, r.State(), want)
		}
	}
}

// TestSkipMatchesDraws checks that Skip(k) lands where k draws do, for k
// from 0 up, across the wrap of the state, and for a count large enough that
// k·gamma wraps many times.
func TestSkipMatchesDraws(t *testing.T) {
	for _, seed := range []uint64{0, 77, ^uint64(0) - 5} {
		r, s := NewRNG(seed), NewRNG(seed)
		for k := uint64(0); k < 300; k++ {
			s.Skip(k)
			for i := uint64(0); i < k; i++ {
				r.Uint64()
			}
			if r.State() != s.State() {
				t.Fatalf("seed %#x: Skip(%d) state %#x, %d draws %#x", seed, k, s.State(), k, r.State())
			}
		}
	}
	r, s := NewRNG(3), NewRNG(3)
	const big = 1_000_003
	for i := 0; i < big; i++ {
		r.Uint64()
	}
	if s.Skip(big); r.State() != s.State() {
		t.Fatalf("Skip(%d) state %#x, draws %#x", big, s.State(), r.State())
	}
}

// TestBoolCutMatchesFloat64 checks the integer threshold against Bool's
// float comparison at and around the threshold itself, at the ends of the
// draw range and on random draws, for rates on the 2^-53 grid, off it, tiny
// (down to the smallest subnormal), just below 1, and NaN.
func TestBoolCutMatchesFloat64(t *testing.T) {
	const top = 1 << 53
	rates := []float64{
		1.0 / top, 2.0 / top, 3.0 / top, 12345.0 / top, (top/2 - 1.0) / top, 0.5,
		(top - 1.0) / top, math.Nextafter(1, 0), 0.1, 0.3, 1.0 / 3, 0.02,
		1e-300, math.SmallestNonzeroFloat64, math.NaN(),
	}
	r := NewRNG(3)
	for _, p := range rates {
		cut := BoolCut(p)
		xs := []uint64{0, 1, top - 2, top - 1}
		for _, x := range []uint64{cut - 1, cut, cut + 1} {
			if x < top {
				xs = append(xs, x)
			}
		}
		for i := 0; i < 1000; i++ {
			xs = append(xs, r.Uint64()>>11)
		}
		for _, x := range xs {
			if float, cutWise := float64(x)/top < p, x < cut; float != cutWise {
				t.Fatalf("p=%g x=%d: Float64 test %v, BoolCut(%d) test %v", p, x, float, cut, cutWise)
			}
		}
	}
}
