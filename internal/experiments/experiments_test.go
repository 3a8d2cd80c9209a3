package experiments

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every experiment at quick scale: the
// tables must be well-formed and the runs deadlock-free.
func TestAllExperimentsRunQuick(t *testing.T) {
	p := Quick()
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep, err := e.Fn(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID == "" || rep.Title == "" {
				t.Fatal("missing report metadata")
			}
			out := rep.Table.String()
			if strings.Count(out, "\n") < 3 {
				t.Fatalf("table too small:\n%s", out)
			}
			if len(rep.Notes) == 0 {
				t.Fatal("missing notes")
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := Sorted()
	if len(ids) != 21 {
		t.Fatalf("registry has %d experiments, want 21", len(ids))
	}
}

// TestE1Shape verifies the headline claim's shape at quick scale: the
// no-reuse gain must grow with message length and exceed 1 for long
// messages.
func TestE1Shape(t *testing.T) {
	rep, err := E1MessageLength(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	csv := rep.Table.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	var firstGain, lastGain string
	for i, ln := range lines {
		cells := strings.Split(ln, ",")
		if i == 1 {
			firstGain = cells[4]
		}
		if i == len(lines)-1 {
			lastGain = cells[4]
		}
	}
	fg, err := strconv.ParseFloat(firstGain, 64)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := strconv.ParseFloat(lastGain, 64)
	if err != nil {
		t.Fatal(err)
	}
	if lg <= fg {
		t.Fatalf("no-reuse gain did not grow with length: %.2f -> %.2f", fg, lg)
	}
	if lg < 1.5 {
		t.Fatalf("long-message gain %.2f too small", lg)
	}
}

// TestHeadlineClaimCrossSeed replicates the E1 headline (256-flit gain,
// no reuse) across seeds: the >3x factor is not a lucky seed.
func TestHeadlineClaimCrossSeed(t *testing.T) {
	p := Quick()
	p.Seed = 11
	mean, ci, err := Headline(context.Background(), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mean-ci < 2.5 {
		t.Fatalf("cross-seed gain %.2f +/- %.2f too weak for the headline claim", mean, ci)
	}
}

func TestHeadlineValidation(t *testing.T) {
	if _, _, err := Headline(context.Background(), Quick(), 0); err == nil {
		t.Fatal("0 reps accepted")
	}
}

// TestExperimentCancellation: a cancelled context cuts a sweep short
// between points/cycles instead of running it to completion.
func TestExperimentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := E2LoadSweep(ctx, Quick()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
