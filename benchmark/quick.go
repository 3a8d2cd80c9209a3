package main

import (
	"fmt"
	"io"
)

// quickRun is one workload's two passes at -quick scale.
type quickRun struct {
	workload string
	endToEnd *result
	perLayer *result
}

// runQuick runs every workload once at 1/quickScale of its window, in this
// process, end-to-end pass then traced pass: every correctness check except
// the two sub-saturation ones (which need the full window), and every metric
// name, in a few seconds. The numbers it prints are not measurements.
func runQuick(w io.Writer, seed uint64) ([]quickRun, error) {
	var out []quickRun
	for i := range workloads {
		o := runOpts{w: &workloads[i], seed: seed, scale: quickScale}
		e2e, in := runEndToEnd(o)
		if !e2e.Correct {
			return out, fmt.Errorf("end-to-end pass: %s", in.Error)
		}
		layers, in := runTraced(o)
		if !layers.Correct {
			return out, fmt.Errorf("traced pass: %s", in.Error)
		}
		fmt.Fprintf(w, "quick %-28s ok  %d end-to-end + %d per-layer metrics, %d operations, 0 failed (1/%d scale: not a measurement)\n",
			o.w.name, len(e2e.Metrics), len(layers.Metrics), e2e.Attempted+layers.Attempted, quickScale)
		out = append(out, quickRun{workload: o.w.name, endToEnd: e2e, perLayer: layers})
	}
	return out, nil
}
