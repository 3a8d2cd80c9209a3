// Package stats collects and summarises simulation measurements: message
// latency (with warm-up exclusion), accepted throughput, and distribution
// summaries (mean, percentiles, histogram) for the experiment harness.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series accumulates scalar samples and answers distribution queries.
type Series struct {
	samples []float64
	// nsorted counts the leading samples already in ascending order; the
	// samples added after them are in arrival order.
	nsorted int
	sum     float64
	// merge is scratch for the samples merged into the sorted prefix.
	merge []float64
}

// Add appends a sample.
func (s *Series) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
}

// N returns the sample count.
func (s *Series) N() int { return len(s.samples) }

// Mean returns the sample mean (0 with no samples).
func (s *Series) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Std returns the sample standard deviation.
func (s *Series) Std() float64 {
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, v := range s.samples {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CI95 returns the 95% confidence half-width of the mean (normal
// approximation; 0 with fewer than 2 samples).
func (s *Series) CI95() float64 {
	n := len(s.samples)
	if n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(n))
}

// ensureSorted sorts the samples added since the last call and merges them
// into the sorted prefix, so a caller that asks for percentiles as a series
// grows pays for the new samples and one merge, not a full sort. The result
// is the order sort.Float64s gives the whole series (NaNs first).
func (s *Series) ensureSorted() {
	n := len(s.samples)
	if s.nsorted == n {
		return
	}
	tail := s.samples[s.nsorted:]
	sort.Float64s(tail)
	if s.nsorted > 0 && less(tail[0], s.samples[s.nsorted-1]) {
		// Merge from the back through a copy of the tail: every write
		// lands above the prefix samples still to be read, and a tie
		// keeps the prefix's sample first.
		s.merge = append(s.merge[:0], tail...)
		i, j := s.nsorted-1, len(s.merge)-1
		for k := n - 1; j >= 0; k-- {
			if i >= 0 && less(s.merge[j], s.samples[i]) {
				s.samples[k] = s.samples[i]
				i--
			} else {
				s.samples[k] = s.merge[j]
				j--
			}
		}
	}
	s.nsorted = n
}

// less is sort.Float64s's order: ascending, NaNs first.
func less(a, b float64) bool { return a < b || a != a && b == b }

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank.
// An empty series answers 0 — never an index panic — so callers that
// snapshot before the first sample (e.g. waved's interval-0 progress line)
// get a defined, finite value.
func (s *Series) Percentile(p float64) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[len(s.samples)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.samples[rank]
}

// Min returns the smallest sample (0 with no samples, like Percentile).
func (s *Series) Min() float64 { return s.Percentile(0) }

// Max returns the largest sample (0 with no samples, like Percentile).
func (s *Series) Max() float64 { return s.Percentile(100) }

// Histogram bins samples into `bins` equal-width buckets over [min, max] and
// renders an ASCII bar chart, for the CLI tools.
func (s *Series) Histogram(bins int) string {
	if len(s.samples) == 0 || bins < 1 {
		return "(no samples)"
	}
	s.ensureSorted()
	lo, hi := s.samples[0], s.samples[len(s.samples)-1]
	if hi == lo {
		return fmt.Sprintf("all %d samples = %g", len(s.samples), lo)
	}
	counts := make([]int, bins)
	for _, v := range s.samples {
		b := int((v - lo) / (hi - lo) * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	var b strings.Builder
	for i, c := range counts {
		left := lo + (hi-lo)*float64(i)/float64(bins)
		bar := strings.Repeat("#", int(math.Round(float64(c)/float64(maxC)*40)))
		fmt.Fprintf(&b, "%10.1f | %-40s %d\n", left, bar, c)
	}
	return b.String()
}

// Run aggregates one simulation run: latency by substrate plus throughput
// accounting over the measurement window.
type Run struct {
	// Warmup is the cycle before which deliveries are ignored.
	Warmup int64

	// Latency of all measured messages; CircuitLatency/WormholeLatency split
	// by substrate.
	Latency         Series
	CircuitLatency  Series
	WormholeLatency Series

	// Flit/message accounting within the window.
	FlitsDelivered int64
	MsgsDelivered  int64

	start, end int64 // measurement window bounds actually observed
}

// NewRun returns a collector ignoring deliveries before warmup.
func NewRun(warmup int64) *Run { return &Run{Warmup: warmup, start: -1} }

// Record registers a delivery: injection cycle, delivery cycle, length and
// substrate. Messages injected before the warm-up are excluded entirely so
// cold-start transients don't pollute the distribution.
func (r *Run) Record(injected, delivered int64, lenFlits int, viaCircuit bool) {
	if injected < r.Warmup {
		return
	}
	lat := float64(delivered - injected)
	r.Latency.Add(lat)
	if viaCircuit {
		r.CircuitLatency.Add(lat)
	} else {
		r.WormholeLatency.Add(lat)
	}
	r.FlitsDelivered += int64(lenFlits)
	r.MsgsDelivered++
	if r.start < 0 || injected < r.start {
		r.start = injected
	}
	if delivered > r.end {
		r.end = delivered
	}
}

// Throughput returns accepted throughput in flits per node per cycle over
// the observed window.
func (r *Run) Throughput(nodes int) float64 {
	if r.start < 0 || r.end <= r.start || nodes == 0 {
		return 0
	}
	return float64(r.FlitsDelivered) / float64(r.end-r.start) / float64(nodes)
}

// Snapshot is a point-in-time digest of a Run for live progress reporting
// (the payload of waved's NDJSON stream). Every field is defined for an
// empty window: before the first measured delivery the latency figures and
// throughput are all 0 (see Percentile).
type Snapshot struct {
	Delivered  int64   `json:"delivered"`
	AvgLatency float64 `json:"avg_latency"`
	P50Latency float64 `json:"p50_latency"`
	P99Latency float64 `json:"p99_latency"`
	Throughput float64 `json:"throughput"`
}

// Snapshot summarises the deliveries recorded so far for a `nodes`-node
// network. It is safe to call at any point during a run, including before
// any delivery has been recorded.
func (r *Run) Snapshot(nodes int) Snapshot {
	return Snapshot{
		Delivered:  r.MsgsDelivered,
		AvgLatency: r.Latency.Mean(),
		P50Latency: r.Latency.Percentile(50),
		P99Latency: r.Latency.Percentile(99),
		Throughput: r.Throughput(nodes),
	}
}

// Summary renders a one-line digest.
func (r *Run) Summary(nodes int) string {
	return fmt.Sprintf("msgs=%d lat(avg=%.1f p50=%.0f p99=%.0f) circ=%d wh=%d thr=%.4f",
		r.MsgsDelivered, r.Latency.Mean(), r.Latency.Percentile(50), r.Latency.Percentile(99),
		r.CircuitLatency.N(), r.WormholeLatency.N(), r.Throughput(nodes))
}

// Table is a small fixed-width text table builder for the experiment
// harness's paper-style outputs.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.header, ","))
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
