package main

import (
	"fmt"
	"io"
)

// Verdicts of one workload x end-to-end metric row.
const (
	vBetter     = "better"
	vWithin     = "within bound"
	vWorse      = "worse"
	vUnresolved = "unresolved"
)

// worseBy is how much b's median is worse than a's, as a share of a's
// median (negative when b is better).
func worseBy(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// strictlyBetter says x reads better than y under the metric's direction.
func strictlyBetter(def metricDef, x, y float64) bool {
	if def.better == "higher" {
		return x > y
	}
	return x < y
}

// verdict judges the runs of a change (b) against the runs of its parent (a)
// on one metric:
//
//   - better: every run of b reads better than every run of a, and the
//     medians differ by more than the spread between a's own runs (with
//     three runs a side, "every run better" alone happens by chance 1 time
//     in 20);
//   - worse: b's median is worse than a's by more than the bound (for
//     setup_s also by more than setupFloorS) and the spread does not hide it;
//   - unresolved: the spread between runs of one side exceeds the bound, so
//     neither "worse" nor "unchanged" can be claimed;
//   - within bound: otherwise.
func verdict(def metricDef, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return vUnresolved
	}
	sa, sb := summarize(a), summarize(b)
	allBetter := strictlyBetter(def, worst(def, sb), best(def, sa))
	allWorse := strictlyBetter(def, worst(def, sa), best(def, sb))
	delta := worseBy(def, sa.Median, sb.Median)
	if allBetter && -delta > ratio(sa.Max-sa.Min, sa.Median) {
		return vBetter
	}
	spread := max(ratio(sa.Max-sa.Min, sa.Median), ratio(sb.Max-sb.Min, sb.Median))
	exceeds := delta > def.bound
	if def.name == "setup_s" && sb.Median-sa.Median <= setupFloorS {
		exceeds = false
	}
	switch {
	case exceeds && (allWorse || spread <= def.bound):
		return vWorse
	case spread > def.bound:
		return vUnresolved
	default:
		return vWithin
	}
}

func best(def metricDef, s summary) float64 {
	if def.better == "higher" {
		return s.Max
	}
	return s.Min
}

func worst(def metricDef, s summary) float64 {
	if def.better == "higher" {
		return s.Min
	}
	return s.Max
}

// byMetricWorkload groups the untraced runs' values as [metric][workload].
func byMetricWorkload(recs []runRecord) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Info.Trace != 0 {
			continue
		}
		for name, m := range r.Result.Metrics {
			if out[name] == nil {
				out[name] = map[string][]float64{}
			}
			out[name][r.Info.Workload] = append(out[name][r.Info.Workload], m.Value)
		}
	}
	return out
}

// compareFiles prints one row per workload x end-to-end metric and reports
// whether any row is "worse".
func compareFiles(w io.Writer, specA, specB string) (anyWorse bool, err error) {
	ra, err := loadRuns(specA)
	if err != nil {
		return false, err
	}
	rb, err := loadRuns(specB)
	if err != nil {
		return false, err
	}
	a, b := byMetricWorkload(ra), byMetricWorkload(rb)
	fmt.Fprintf(w, "a = %s\nb = %s\n", specA, specB)
	fmt.Fprintf(w, "%-26s %-24s %-9s %12s %25s %12s %25s %7s %6s  %s\n",
		"workload", "metric", "unit", "a median", "a [min, max]", "b median", "b [min, max]", "b vs a", "bound", "verdict")
	for i := range workloads {
		name := workloads[i].name
		for _, def := range endToEnd {
			va, vb := a[def.name][name], b[def.name][name]
			sa, sb := summarize(va), summarize(vb)
			v := verdict(def, va, vb)
			anyWorse = anyWorse || v == vWorse
			// b vs a is signed so that positive means worse.
			fmt.Fprintf(w, "%-26s %-24s %-9s %12.6g %25s %12.6g %25s %+6.1f%% %5.0f%%  %s\n",
				name, def.name, def.unit,
				sa.Median, fmt.Sprintf("[%.6g, %.6g]", sa.Min, sa.Max),
				sb.Median, fmt.Sprintf("[%.6g, %.6g]", sb.Min, sb.Max),
				100*worseBy(def, sa.Median, sb.Median), 100*def.bound, v)
		}
	}
	return anyWorse, nil
}
