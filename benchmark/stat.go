package main

import (
	"math"
	"sort"
)

// summary is what a set of repeated measurements reduces to.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func sorted(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count), 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	s := sorted(vs)
	return summary{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// percentile is the nearest-rank p-th percentile (p in (0,100]) of vs.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sorted(vs)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// tailPermille are the tail percentiles a report may quote, highest first,
// in tenths of a per cent so the sample arithmetic stays in integers.
var tailPermille = []int{999, 990, 950, 900, 750}

// supportedTail returns the highest percentile that still has at least ten
// samples beyond it in a sample of n, or 50 when not even p75 does: a tail
// figure resting on fewer samples is one slow run, not a percentile.
func supportedTail(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm)/1000 >= 10 {
			return float64(pm) / 10
		}
	}
	return 50
}

// ratio returns a/b, or 0 when b is 0 (an idle layer has no per-unit cost).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
