package main

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/verify"
	"repro/wave"
)

func TestCertifiedVerdicts(t *testing.T) {
	cases := [][]string{
		{"-topology", "mesh", "-radix", "4x4", "-routing", "dor", "-vcs", "1"},
		{"-topology", "torus", "-radix", "4x4", "-routing", "dor", "-vcs", "2"},
		{"-topology", "torus", "-radix", "8x8", "-routing", "duato", "-vcs", "3"},
		{"-topology", "mesh", "-radix", "4x4", "-routing", "duato", "-vcs", "2"},
		{"-topology", "torus", "-radix", "4x4x4", "-routing", "dor", "-vcs", "2"},
		{"-topology", "hypercube", "-dims", "4", "-routing", "duato", "-vcs", "2"},
		{"-topology", "mesh", "-radix", "4x4", "-routing", "westfirst", "-vcs", "1", "-protocol", "wormhole"},
		{"-topology", "mesh", "-radix", "3x3x3", "-routing", "negativefirst", "-vcs", "2"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out.String())
		}
		if !strings.Contains(out.String(), "VERDICT: CERTIFIED") {
			t.Fatalf("%v: no certified verdict:\n%s", args, out.String())
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-routing", "dor", "-topology", "torus", "-vcs", "1"},   // dateline needs 2
		{"-routing", "duato", "-topology", "torus", "-vcs", "2"}, // needs 3 on torus
		{"-routing", "nope"},
		{"-radix", "4xq"},
		{"-radix", "1x4"},
		{"-topology", "ring"},
		{"-faults", "12;0"},
		{"-faults", "3:0junk,5:1;"}, // trailing text after a pair
		{"-faults", "3:0:7"},        // three fields
		{"-faults", "3:0,"},         // empty pair
		{"-faults", "3:0,5:1,3:0"},  // channel named twice
		{"-protocol", "telepathy"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Fatalf("%v accepted", args)
		}
		// Usage errors must not be classified as proof failures (exit 1 vs 2).
		if errNotCertified(err) {
			t.Fatalf("%v: usage error classified as proof failure: %v", args, err)
		}
	}
}

// TestFaultsCounted: well-formed fault pairs all reach the certificate.
func TestFaultsCounted(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-faults", "3:0,5:1,3:1"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), ", 3 permanent faults") {
		t.Fatalf("fault count not printed:\n%s", out.String())
	}
}

func TestCyclicCounterexample(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-topology", "torus", "-radix", "4x4",
		"-routing", "dor-nodateline", "-vcs", "1", "-protocol", "wormhole"}, &out)
	if err == nil {
		t.Fatal("cyclic function certified")
	}
	if !errNotCertified(err) {
		t.Fatalf("proof failure classified as usage error: %v", err)
	}
	if !strings.Contains(out.String(), "VERDICT: NOT CERTIFIED") {
		t.Fatalf("missing verdict:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "link") {
		t.Fatalf("counterexample cycle not printed:\n%s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-topology", "torus", "-radix", "4x4",
		"-routing", "duato", "-vcs", "3", "-json"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	var cert verify.Certificate
	if err := json.Unmarshal(out.Bytes(), &cert); err != nil {
		t.Fatalf("output is not a JSON certificate: %v\n%s", err, out.String())
	}
	if !cert.Certified || cert.Routing != "duato" || cert.Deadlock.Method != "escape" {
		t.Fatalf("unexpected certificate: %+v", cert)
	}
}

// TestRoutingAll sweeps every registered function on one topology: the
// sweep certifies what fits, skips functions whose VC minimum exceeds -vcs,
// and fails overall because dor-nodateline is in the registry.
func TestRoutingAll(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-topology", "torus", "-radix", "4x4",
		"-routing", "all", "-vcs", "2", "-protocol", "wormhole"}, &out)
	if err == nil {
		t.Fatal("sweep including dor-nodateline certified")
	}
	if !errNotCertified(err) {
		t.Fatalf("sweep failure classified as usage error: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "duato: skipped") {
		t.Fatalf("duato (needs 3 VCs on a torus) not skipped:\n%s", s)
	}
	if !strings.Contains(s, "VERDICT: CERTIFIED") || !strings.Contains(s, "VERDICT: NOT CERTIFIED") {
		t.Fatalf("sweep missing mixed verdicts:\n%s", s)
	}

	// On a mesh with a sufficient VC budget, every cube-applicable function
	// certifies (dor-nodateline degenerates to plain DOR without wraparound);
	// the fat-tree and full-mesh functions are skipped as family mismatches.
	out.Reset()
	if err := run([]string{"-topology", "mesh", "-radix", "4x4",
		"-routing", "all", "-vcs", "2", "-protocol", "wormhole"}, &out); err != nil {
		t.Fatalf("mesh sweep: %v\n%s", err, out.String())
	}
	s = out.String()
	certified := strings.Count(s, "VERDICT: CERTIFIED")
	skipped := strings.Count(s, ": skipped (")
	if certified+skipped != len(routing.Names()) || skipped != 3 {
		t.Fatalf("mesh sweep certified %d + skipped %d of %d functions:\n%s",
			certified, skipped, len(routing.Names()), s)
	}
}

// TestNewFamilies: the fat-tree up*/down* and full-mesh VC-free configs
// certify with a single VC, and the unlabeled full-mesh variant is rejected
// with a counterexample cycle unless recovery is enabled.
func TestNewFamilies(t *testing.T) {
	certified := [][]string{
		{"-topology", "fattree", "-radix", "2", "-dims", "3", "-routing", "updown", "-vcs", "1"},
		{"-topology", "fattree", "-radix", "4", "-dims", "2", "-routing", "updown", "-vcs", "2", "-protocol", "carp"},
		{"-topology", "fullmesh", "-radix", "8", "-routing", "vcfree", "-vcs", "1"},
		{"-topology", "fullmesh", "-radix", "6", "-routing", "vcfree", "-vcs", "2", "-protocol", "wormhole"},
		{"-topology", "fullmesh", "-radix", "6", "-routing", "vcfree-nolabel", "-vcs", "1", "-recovery", "4096"},
	}
	for _, args := range certified {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out.String())
		}
		if !strings.Contains(out.String(), "VERDICT: CERTIFIED") {
			t.Fatalf("%v: no certified verdict:\n%s", args, out.String())
		}
	}

	var out bytes.Buffer
	err := run([]string{"-topology", "fullmesh", "-radix", "6",
		"-routing", "vcfree-nolabel", "-vcs", "1", "-protocol", "wormhole"}, &out)
	if err == nil {
		t.Fatal("unlabeled full-mesh routing certified without recovery")
	}
	if !errNotCertified(err) {
		t.Fatalf("proof failure classified as usage error: %v", err)
	}
	if !strings.Contains(out.String(), "VERDICT: NOT CERTIFIED") ||
		!strings.Contains(out.String(), "link") {
		t.Fatalf("missing counterexample cycle:\n%s", out.String())
	}
}

// TestFlagDefaultsMatchDefaultConfig pins every flag cdgcheck shares with a
// simulation run to wave.DefaultConfig, so a bare cdgcheck certifies the
// configuration a bare wavesim or waved job actually runs.
func TestFlagDefaultsMatchDefaultConfig(t *testing.T) {
	def := wave.DefaultConfig()
	radix := make([]string, len(def.Topology.Radix))
	for i, r := range def.Topology.Radix {
		radix[i] = strconv.Itoa(r)
	}
	want := map[string]string{
		"topology":  def.Topology.Kind,
		"radix":     strings.Join(radix, "x"),
		"routing":   def.Routing,
		"vcs":       strconv.Itoa(def.NumVCs),
		"protocol":  def.Protocol,
		"switches":  strconv.Itoa(def.NumSwitches),
		"misroutes": strconv.Itoa(def.MaxMisroutes),
		"retries":   strconv.Itoa(def.ProbeRetryLimit),
		"recovery":  strconv.FormatInt(def.RecoveryTimeout, 10),
	}
	fs, _ := newFlags()
	for name, v := range want {
		fl := fs.Lookup(name)
		if fl == nil {
			t.Errorf("no -%s flag", name)
			continue
		}
		if fl.DefValue != v {
			t.Errorf("-%s defaults to %q, wave.DefaultConfig has %q", name, fl.DefValue, v)
		}
	}
}
