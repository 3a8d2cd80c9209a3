package verify

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/pins"
	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/wave"
)

// TestMain fails a run that leaves a testdata/pins.txt entry unchecked.
func TestMain(m *testing.M) { os.Exit(pins.Main(m)) }

// certDigest hashes the JSON encoding of every certificate in order, one
// line each; a spec Certify refuses contributes its error text instead.
func certDigest(t *testing.T, specs []Spec) string {
	t.Helper()
	var lines []byte
	for _, sp := range specs {
		cert, err := Certify(sp)
		if err != nil {
			lines = append(lines, "error: "+err.Error()+"\n"...)
			continue
		}
		b, err := json.Marshal(cert)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, b...), '\n')
	}
	return pins.Sum(lines)
}

// TestCertificateBytesPinned pins the exact certificate bytes of two sweeps:
// every configuration of the experiment matrix, and cdgcheck's
// "-routing all" at its default flags on one topology of each family. A
// prover change that alters any verdict, method, detail or counterexample
// text moves a digest; a pure refactor of the prover must leave both alone.
func TestCertificateBytesPinned(t *testing.T) {
	var matrix []Spec
	for _, c := range experimentMatrix(t) {
		matrix = append(matrix, c.sp)
	}

	def := wave.DefaultConfig()
	var sweep []Spec
	for _, tp := range []struct {
		kind, radix string
		dims        int
	}{
		{"torus", "8x8", 0},
		{"mesh", "6x6", 0},
		{"hypercube", "", 5},
		{"fullmesh", "8", 0},
		{"fattree", "4", 2},
	} {
		tc, err := wave.ParseTopology(tp.kind, tp.radix, tp.dims)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := tc.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range routing.Names() {
			sweep = append(sweep, Spec{
				Topo: topo, Routing: name, NumVCs: def.NumVCs,
				Protocol: protocol.Kind(def.Protocol), NumSwitches: def.NumSwitches,
				MaxMisroutes: def.MaxMisroutes, ProbeRetryLimit: def.ProbeRetryLimit,
				RecoveryTimeout: def.RecoveryTimeout,
			})
		}
	}

	pins.Check(t, "certificate/experiment-matrix", certDigest(t, matrix))
	pins.Check(t, "certificate/routing-all", certDigest(t, sweep))
}
