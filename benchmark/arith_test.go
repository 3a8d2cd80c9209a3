package main

import (
	"math"
	"testing"
)

// fakeClock returns a tracer whose clock the test advances by hand.
func fakeClock() (*tracer, *int64) {
	now := new(int64)
	tr := newTracer()
	tr.clock = func() int64 { return *now }
	return tr, now
}

func TestSpanSelfTimeNestedAndAdjacentChildren(t *testing.T) {
	tr, now := fakeClock()
	// tick [0,100) holds two adjacent sends [10,30) and [30,45); the second
	// send holds a record [32,40). step [100,160) follows with no children.
	tr.begin(spTick)
	*now = 10
	tr.begin(spSend)
	*now = 30
	tr.end()
	tr.begin(spSend)
	*now = 32
	tr.begin(spRecord)
	*now = 40
	tr.end()
	*now = 45
	tr.end()
	*now = 100
	tr.endAt(*now)
	tr.beginAt(spStep, *now) // chained: shares the clock read
	*now = 160
	tr.end()

	want := map[spanID]spanAgg{
		spTick:   {count: 1, total: 100, child: 35},
		spSend:   {count: 2, total: 35, child: 8},
		spRecord: {count: 1, total: 8, child: 0},
		spStep:   {count: 1, total: 60, child: 0},
	}
	for id, w := range want {
		if got := tr.agg[id]; got != w {
			t.Errorf("%s: got %+v, want %+v", spanNames[id], got, w)
		}
	}
	if got := tr.agg[spTick].self(); got != 65 {
		t.Errorf("tick self = %d, want 65 (100 minus the 35 its children cover)", got)
	}
	if got := tr.agg[spSend].self(); got != 27 {
		t.Errorf("send self = %d, want 27", got)
	}
	// Self times of a tree add up to the root's total.
	if sum := tr.agg[spTick].self() + tr.agg[spSend].self() + tr.agg[spRecord].self(); sum != 100 {
		t.Errorf("self times sum to %d, want the root's 100", sum)
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
}

func TestSampledCyclesKeepCause(t *testing.T) {
	tr, now := fakeClock()
	tr.sampling = true
	tr.startCycle(1) // not a sampled cycle
	tr.begin(spTick)
	tr.end()
	if len(tr.full) != 0 {
		t.Fatalf("cycle 1 kept %d spans in full, want 0", len(tr.full))
	}
	tr.startCycle(sampleEvery)
	tr.begin(spStep)
	*now = 5
	tr.begin(spRecord)
	*now = 7
	tr.end()
	*now = 9
	tr.end()
	if len(tr.full) != 2 {
		t.Fatalf("sampled cycle kept %d spans, want 2", len(tr.full))
	}
	step, rec := tr.full[0], tr.full[1]
	if step.parent != -1 || rec.parent != 0 {
		t.Errorf("parents = %d, %d; want -1 (root) and 0 (the step span)", step.parent, rec.parent)
	}
	if rec.start != 5 || rec.end != 7 || step.end != 9 || rec.cycle != sampleEvery {
		t.Errorf("kept spans wrong: step %+v record %+v", step, rec)
	}
}

func TestMedianMinMax(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %g, want 0", got)
	}
	in := []float64{9, 7, 8}
	s := summarize(in)
	if s.Median != 8 || s.Min != 7 || s.Max != 9 || s.N != 3 {
		t.Errorf("summarize = %+v", s)
	}
	if in[0] != 9 {
		t.Error("summarize reordered its input")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(vs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	// Fewer than 20 samples: p95 is the slowest one.
	if got := percentile([]float64{5, 9, 7}, 95); got != 9 {
		t.Errorf("p95 of 3 samples = %g, want the max 9", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50},       // p75 would rest on 1.25 samples
		{39, 50},      // p75 has 9.75 beyond
		{40, 75},      // p75 has exactly 10 beyond
		{100, 90},     // p90 has 10 beyond, p95 only 5
		{200, 95},     // the serve workload's floor: 200 cold jobs
		{999, 95},     // p99 has 9.99 beyond
		{1000, 99},    // p99 has 10 beyond
		{10000, 99.9}, // p99.9 has 10 beyond
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "job_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "sim_cycles_per_s", better: "higher", bound: 0.10}
	setup := metricDef{name: "setup_s", better: "lower", bound: 0.25}
	for _, c := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"identical simulated values", lower, []float64{80.8, 80.8, 80.8}, []float64{80.8, 80.8, 80.8}, vWithin},
		{"small move inside the bound", lower, []float64{100, 101, 102}, []float64{104, 105, 103}, vWithin},
		{"every run of b faster", lower, []float64{100, 101, 102}, []float64{90, 91, 99}, vBetter},
		{"every run of b faster, but by less than a's own spread", lower, []float64{100, 103, 106}, []float64{97, 98, 99}, vWithin},
		{"median 20% slower, tight runs", lower, []float64{100, 101, 102}, []float64{120, 121, 122}, vWorse},
		{"higher is better: 20% fewer cycles/s", higher, []float64{1000, 1010, 990}, []float64{800, 805, 795}, vWorse},
		{"higher is better: all faster", higher, []float64{1000, 1010, 990}, []float64{1100, 1105, 1095}, vBetter},
		{"median worse but b's runs straddle a's", lower, []float64{100, 101, 102}, []float64{95, 115, 140}, vUnresolved},
		{"median equal but spread wider than the bound", lower, []float64{100, 101, 102}, []float64{85, 101, 120}, vUnresolved},
		{"wide spread yet every run of b slower", lower, []float64{100, 101, 102}, []float64{115, 130, 160}, vWorse},
		{"setup 40% slower but only 8 ms: under the floor", setup, []float64{0.020, 0.020, 0.021}, []float64{0.028, 0.028, 0.029}, vWithin},
		{"setup 40% and 100 ms slower", setup, []float64{0.250, 0.251, 0.252}, []float64{0.350, 0.351, 0.352}, vWorse},
		{"setup 20% slower: inside its 25% bound", setup, []float64{0.250, 0.251, 0.252}, []float64{0.300, 0.301, 0.302}, vWithin},
		{"nothing to compare", lower, nil, []float64{1}, vUnresolved},
	} {
		if got := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestWorseBySign(t *testing.T) {
	lower := metricDef{better: "lower"}
	higher := metricDef{better: "higher"}
	if got := worseBy(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110: worseBy = %g, want +0.10", got)
	}
	if got := worseBy(higher, 100, 110); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 110: worseBy = %g, want -0.10", got)
	}
}
