package verify

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/wave"
)

// certDigest hashes the JSON encoding of every certificate in order, one
// line each; a spec Certify refuses contributes its error text instead.
func certDigest(t *testing.T, specs []Spec) string {
	t.Helper()
	h := sha256.New()
	for _, sp := range specs {
		cert, err := Certify(sp)
		if err != nil {
			h.Write([]byte("error: " + err.Error() + "\n"))
			continue
		}
		b, err := json.Marshal(cert)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil))
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

	for _, c := range []struct {
		name  string
		specs []Spec
		want  string
	}{
		{"experiment matrix", matrix, "cb2bed8ba2f22c7a76214c1abc6447f1e1f06eac3c3e4e2a9e8629d2bbf50992"},
		{"routing all", sweep, "8be2715e8360aa06499bd0db032d0530e33abdb5ad81ce2434528fd1d5bee13c"},
	} {
		if got := certDigest(t, c.specs); got != c.want {
			t.Errorf("%s (%d certificates): digest %s, want %s", c.name, len(c.specs), got, c.want)
		}
	}
}
