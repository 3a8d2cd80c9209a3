package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunHumanOutput(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-radix", "4x4", "-warmup", "200", "-measure", "1500",
		"-wset", "2", "-reuse", "0.8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"topology", "latency", "throughput", "circuit cache", "probes"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-radix", "4x4", "-warmup", "200", "-measure", "1500", "-csv"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "protocol,load,len,") {
		t.Fatalf("csv header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "clrp,0.1,64,") {
		t.Fatalf("csv row: %q", lines[1])
	}
}

func TestRunDeterministicCSV(t *testing.T) {
	runOnce := func() string {
		var out bytes.Buffer
		if err := run([]string{"-radix", "4x4", "-warmup", "200", "-measure", "2000",
			"-csv", "-seed", "7", "-wset", "2", "-reuse", "0.9"}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("CSV output not reproducible:\n%s\nvs\n%s", a, b)
	}
}

func TestRunHistogramAndViz(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-radix", "4x4", "-warmup", "200", "-measure", "1500",
		"-hist", "-viz"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "latency histogram") {
		t.Fatal("histogram missing")
	}
	if !strings.Contains(out.String(), "link utilization, dimension 0") {
		t.Fatal("viz missing")
	}
}

func TestRunVizRejectsHypercube(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-topology", "hypercube", "-hyperdims", "4",
		"-warmup", "100", "-measure", "500", "-viz"}, &out)
	if err == nil {
		t.Fatal("viz on hypercube accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "psychic"}, &out); err == nil {
		t.Fatal("bad protocol accepted")
	}
	if err := run([]string{"-radix", "axb"}, &out); err == nil {
		t.Fatal("bad radix accepted")
	}
	if err := run([]string{"-pattern", "nope", "-measure", "100"}, &out); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestRunTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.carp")
	prog := "@0 open 0 5\n@50 send 0 5 64\n@300 close 0 5\n"
	if err := os.WriteFile(path, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-protocol", "carp", "-radix", "4x4", "-trace", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 messages delivered (1 via circuit)") {
		t.Fatalf("trace output: %q", out.String())
	}
}

func TestRunTraceMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "carp", "-trace", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestRunWithFaults(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-radix", "4x4", "-warmup", "200", "-measure", "1500",
		"-faults", "20"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "delivered") {
		t.Fatal("no delivery report with faults")
	}
}

func TestRunClosedLoopMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-radix", "4x4", "-closed", "-requests", "10",
		"-outstanding", "2", "-wset", "2", "-reuse", "0.9", "-pattern", "near"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "closed loop") || !strings.Contains(text, "round trip") {
		t.Fatalf("closed output: %q", text)
	}
	if !strings.Contains(text, "160 round trips") {
		t.Fatalf("completion count missing: %q", text)
	}
}

func TestRunCircuitsFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-radix", "4x4", "-warmup", "200", "-measure", "1200",
		"-wset", "2", "-reuse", "0.9", "-circuits"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "established circuits:") {
		t.Fatal("circuit dump missing")
	}
}

func TestRunCompareMode(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-radix", "4x4", "-compare", "-warmup", "200",
		"-measure", "1200", "-wset", "2", "-reuse", "0.8", "-pattern", "near"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, proto := range []string{"wormhole", "pcs", "clrp", "carp"} {
		if !strings.Contains(text, proto) {
			t.Fatalf("compare missing %s:\n%s", proto, text)
		}
	}
	if strings.Count(strings.TrimSpace(text), "\n") != 4 {
		t.Fatalf("compare table lines:\n%s", text)
	}
}

func TestRunRecoveryRouting(t *testing.T) {
	var out bytes.Buffer
	// Unsafe routing without recovery must be rejected...
	if err := run([]string{"-radix", "4x4", "-routing", "dor-nodateline", "-vcs", "1",
		"-protocol", "wormhole", "-measure", "500"}, &out); err == nil {
		t.Fatal("dor-nodateline without -recovery accepted")
	}
	// ...and accepted with it.
	out.Reset()
	if err := run([]string{"-radix", "4x4", "-routing", "dor-nodateline", "-vcs", "1",
		"-protocol", "wormhole", "-recovery", "64", "-warmup", "200", "-measure", "1500"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "delivered") {
		t.Fatal("no results")
	}
}

// TestTimeoutFlag: a run that cannot finish inside -timeout exits with a
// deadline error instead of hanging.
func TestTimeoutFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-radix", "4x4", "-warmup", "0",
		"-measure", "2000000000", "-timeout", "50ms"}, &out)
	if err == nil {
		t.Fatal("timed-out run reported success")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestTimeoutFlagGenerous: a comfortable budget does not perturb a normal
// run.
func TestTimeoutFlagGenerous(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-radix", "4x4", "-warmup", "200", "-measure", "1500",
		"-timeout", "5m"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "throughput") {
		t.Fatalf("output truncated:\n%s", out.String())
	}
}

// TestRunRefusesNonFiniteClockMult: NaN passed the fabric's "<= 0" test
// and infinity is no clock rate; all three must fail, naming the field.
func TestRunRefusesNonFiniteClockMult(t *testing.T) {
	for _, mult := range []string{"NaN", "Inf", "-Inf"} {
		var out bytes.Buffer
		err := run([]string{"-radix", "4x4", "-clockmult", mult, "-warmup", "10", "-measure", "100"}, &out)
		if err == nil {
			t.Fatalf("-clockmult %s accepted:\n%s", mult, out.String())
		}
		if !strings.Contains(err.Error(), "WaveClockMult") {
			t.Fatalf("-clockmult %s: error %q does not name the field", mult, err)
		}
	}
}

// TestRunRefusesNonFiniteLoad: a NaN load used to inject nothing and print
// a normal-looking report, and an infinite one fired every host every
// cycle until the drain gave up. Both must fail, naming the value.
func TestRunRefusesNonFiniteLoad(t *testing.T) {
	for _, load := range []string{"NaN", "Inf", "-Inf"} {
		var out bytes.Buffer
		err := run([]string{"-radix", "4x4", "-load", load, "-warmup", "10", "-measure", "100"}, &out)
		if err == nil {
			t.Fatalf("-load %s accepted:\n%s", load, out.String())
		}
		if !strings.Contains(err.Error(), strings.TrimPrefix(load, "-")) {
			t.Fatalf("-load %s: error %q does not name the value", load, err)
		}
	}
}
