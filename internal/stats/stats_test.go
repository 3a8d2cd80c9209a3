package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.N() != 0 || s.Mean() != 0 || s.Std() != 0 {
		t.Fatal("empty series not zero")
	}
	for _, v := range []float64{4, 2, 8, 6} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %g", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("min/max = %g/%g", s.Min(), s.Max())
	}
}

func TestSeriesStd(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	// Sample std of this classic set is ~2.138.
	if got := s.Std(); got < 2.13 || got > 2.15 {
		t.Fatalf("Std = %g", got)
	}
}

func TestPercentiles(t *testing.T) {
	var s Series
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 50: 50, 99: 99, 100: 100, 25: 25}
	for p, want := range cases {
		if got := s.Percentile(p); got != want {
			t.Errorf("P%g = %g, want %g", p, got, want)
		}
	}
}

func TestPercentileAfterAdd(t *testing.T) {
	// Adding after a percentile query must re-sort.
	var s Series
	s.Add(10)
	_ = s.Percentile(50)
	s.Add(1)
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("min after re-add = %g", got)
	}
}

// TestPercentileIncrementalSortMatchesFreshSort interleaves Adds with
// percentile queries, as a progress hook snapshotting a growing series
// does, and holds the merged order to a fresh sort of every sample after
// each query: the same bits at every rank, NaNs and repeats included.
func TestPercentileIncrementalSortMatchesFreshSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	var s Series
	var all []float64
	for round := 0; round < 300; round++ {
		for n := rng.IntN(40); n > 0; n-- {
			var v float64
			switch r := rng.IntN(50); {
			case r == 0:
				v = math.NaN()
			case r == 1:
				v = math.Inf(1 - 2*rng.IntN(2))
			case r < 25:
				v = float64(rng.IntN(60)) // repeats, as cycle latencies have
			default:
				v = rng.NormFloat64() * 1e3
			}
			s.Add(v)
			all = append(all, v)
		}
		p := rng.Float64() * 100
		got := s.Percentile(p)
		want := slices.Clone(all)
		sort.Float64s(want)
		for i := range want {
			if math.Float64bits(s.samples[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d: rank %d holds %v, a fresh sort %v", round, i, s.samples[i], want[i])
			}
		}
		if len(all) > 0 {
			rank := max(int(math.Ceil(p/100*float64(len(all))))-1, 0)
			if math.Float64bits(got) != math.Float64bits(want[rank]) {
				t.Fatalf("round %d: P%g = %v, want %v", round, p, got, want[rank])
			}
		}
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(vals []float64) bool {
		var s Series
		for _, v := range vals {
			s.Add(v)
		}
		if len(vals) == 0 {
			return s.Percentile(50) == 0
		}
		last := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < last {
				return false
			}
			last = cur
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	var s Series
	if got := s.Histogram(4); got != "(no samples)" {
		t.Fatalf("empty histogram = %q", got)
	}
	s.Add(5)
	s.Add(5)
	if !strings.Contains(s.Histogram(4), "all 2 samples") {
		t.Fatal("degenerate histogram wrong")
	}
	for i := 0; i < 100; i++ {
		s.Add(float64(i))
	}
	h := s.Histogram(10)
	if strings.Count(h, "\n") != 10 {
		t.Fatalf("histogram rows: %q", h)
	}
}

func TestRunWarmupExclusion(t *testing.T) {
	r := NewRun(100)
	r.Record(50, 200, 8, false) // injected during warmup: dropped
	r.Record(150, 250, 8, true)
	if r.MsgsDelivered != 1 || r.Latency.N() != 1 {
		t.Fatalf("warmup exclusion failed: %d msgs", r.MsgsDelivered)
	}
	if r.CircuitLatency.N() != 1 || r.WormholeLatency.N() != 0 {
		t.Fatal("substrate split wrong")
	}
	if r.Latency.Mean() != 100 {
		t.Fatalf("latency = %g", r.Latency.Mean())
	}
}

func TestRunThroughput(t *testing.T) {
	r := NewRun(0)
	if r.Throughput(16) != 0 {
		t.Fatal("empty throughput not 0")
	}
	// 2 messages x 100 flits over cycles 0..1000, 10 nodes:
	// 200 / 1000 / 10 = 0.02.
	r.Record(0, 500, 100, true)
	r.Record(100, 1000, 100, false)
	if got := r.Throughput(10); got != 0.02 {
		t.Fatalf("throughput = %g", got)
	}
}

func TestRunSummary(t *testing.T) {
	r := NewRun(0)
	r.Record(0, 10, 4, true)
	s := r.Summary(4)
	if !strings.Contains(s, "msgs=1") || !strings.Contains(s, "circ=1") {
		t.Fatalf("summary = %q", s)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("load", "latency", "protocol")
	tb.AddRow(0.1, 23.456, "clrp")
	tb.AddRow(0.2, 42.0, "wormhole")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "load") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[2], "23.46") {
		t.Fatalf("float formatting: %q", lines[2])
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "load,latency,protocol\n") {
		t.Fatalf("csv: %q", csv)
	}
	if !strings.Contains(csv, "0.20,42.00,wormhole") {
		t.Fatalf("csv row: %q", csv)
	}
}

func TestCI95(t *testing.T) {
	var s Series
	if s.CI95() != 0 {
		t.Fatal("empty CI not 0")
	}
	s.Add(5)
	if s.CI95() != 0 {
		t.Fatal("single-sample CI not 0")
	}
	for i := 0; i < 99; i++ {
		s.Add(5)
	}
	if s.CI95() != 0 {
		t.Fatal("constant series CI not 0")
	}
	var v Series
	for i := 0; i < 100; i++ {
		v.Add(float64(i % 10))
	}
	ci := v.CI95()
	if ci <= 0 || ci > 1 {
		t.Fatalf("CI95 = %g, want small positive", ci)
	}
}

// TestEmptySeriesDefined: every distribution query on a zero-sample series
// must answer 0 — the contract waved's interval-0 streaming snapshot relies
// on (it snapshots a Run before the first measured delivery).
func TestEmptySeriesDefined(t *testing.T) {
	var s Series
	for name, got := range map[string]float64{
		"Mean":            s.Mean(),
		"Std":             s.Std(),
		"Min":             s.Min(),
		"Max":             s.Max(),
		"Percentile(0)":   s.Percentile(0),
		"Percentile(50)":  s.Percentile(50),
		"Percentile(99)":  s.Percentile(99),
		"Percentile(100)": s.Percentile(100),
	} {
		if got != 0 {
			t.Fatalf("%s on empty series = %g, want 0", name, got)
		}
	}
	if s.N() != 0 {
		t.Fatalf("N on empty series = %d", s.N())
	}
}

// TestSnapshotEmptyRun: a Snapshot taken before any delivery (interval 0 of
// a streamed run) is all zeros, not NaN or a panic.
func TestSnapshotEmptyRun(t *testing.T) {
	r := NewRun(1000)
	snap := r.Snapshot(16)
	if snap != (Snapshot{}) {
		t.Fatalf("empty-run snapshot = %+v, want zero value", snap)
	}
	// Warm-up deliveries stay excluded from the snapshot too.
	r.Record(10, 60, 8, false)
	if snap := r.Snapshot(16); snap.Delivered != 0 {
		t.Fatalf("warm-up delivery leaked into snapshot: %+v", snap)
	}
	r.Record(2000, 2100, 8, true)
	snap = r.Snapshot(16)
	if snap.Delivered != 1 || snap.AvgLatency != 100 || snap.P50Latency != 100 || snap.P99Latency != 100 {
		t.Fatalf("snapshot after one delivery = %+v", snap)
	}
}
