package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/verify"
	"repro/wave"
)

func TestVerifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// A safe configuration (the default duato w=3 CLRP torus) certifies.
	resp, body := doReq(t, ts, "POST", "/v1/verify", `{"config": {"protocol": "clrp"}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good config: status %d, body %s", resp.StatusCode, body)
	}
	var cert verify.Certificate
	if err := json.Unmarshal([]byte(body), &cert); err != nil {
		t.Fatal(err)
	}
	if !cert.Certified || cert.Deadlock.Method != "escape" {
		t.Fatalf("unexpected certificate: %s", body)
	}

	// The deliberately cyclic configuration is refused with the
	// counterexample cycle in the body.
	resp, body = doReq(t, ts, "POST", "/v1/verify",
		`{"config": {"routing": "dor-nodateline", "numvcs": 1, "protocol": "wormhole"}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("cyclic config: status %d, want 422; body %s", resp.StatusCode, body)
	}
	var rej struct {
		Error       string             `json:"error"`
		Certificate verify.Certificate `json:"certificate"`
	}
	if err := json.Unmarshal([]byte(body), &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Certificate.Certified || len(rej.Certificate.Deadlock.Counterexample) == 0 {
		t.Fatalf("422 body lacks a counterexample: %s", body)
	}
	for _, line := range rej.Certificate.Deadlock.Counterexample {
		if !strings.Contains(line, "link") {
			t.Fatalf("counterexample line %q does not name a channel", line)
		}
	}

	// Malformed configurations are 400s, not failed certificates.
	for _, bad := range []string{
		`{"config": {"routing": "nope"}}`,
		`{"config": {"topology": {"kind": "ring"}}}`,
		`{"bogus": 1}`,
		`{"faults": -1}`,
	} {
		resp, body = doReq(t, ts, "POST", "/v1/verify", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400; body %s", bad, resp.StatusCode, body)
		}
	}
}

// TestSubmitGatedOnCertification: an unsafe load spec never reaches the
// queue, the 422 carries the certificate, and the same function queues fine
// once recovery is armed.
func TestSubmitGatedOnCertification(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	spec := `{
		"kind": "load",
		"config": {"topology": {"kind": "torus", "radix": [4, 4]},
		           "protocol": "wormhole", "routing": "dor-nodateline", "numvcs": 1@EXTRA@},
		"load": {"pattern": "uniform", "load": 0.05, "fixedlength": 8},
		"warmup": 50, "measure": 200
	}`
	resp, body := doReq(t, ts, "POST", "/v1/jobs", strings.Replace(spec, "@EXTRA@", "", 1))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("cyclic submit: status %d, body %s", resp.StatusCode, body)
	}
	var rej struct {
		Certificate verify.Certificate `json:"certificate"`
	}
	if err := json.Unmarshal([]byte(body), &rej); err != nil {
		t.Fatal(err)
	}
	if rej.Certificate.Certified || len(rej.Certificate.Deadlock.Counterexample) == 0 {
		t.Fatalf("422 certificate unusable: %s", body)
	}
	if got := s.metrics.submitted.Load(); got != 0 {
		t.Fatalf("unsafe job counted as submitted (%d)", got)
	}

	// Recovery armed: certifies, queues, runs to completion.
	v := submit(t, ts, strings.Replace(spec, "@EXTRA@", `, "recoverytimeout": 64`, 1))
	final := waitState(t, ts, v.ID, func(st State) bool { return st.Terminal() })
	if final.State != StateDone {
		t.Fatalf("recovery job ended %s: %+v", final.State, final)
	}
}

// TestVerdictCache: verdicts are keyed on the prover's inputs. Repeat
// certification of the same configuration, or of one that differs only in
// what the prover never reads, is answered from the cache; a change to any
// prover input is a fresh proof.
func TestVerdictCache(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})

	base := func() Spec {
		cfg := SimConfig(wave.DefaultConfig())
		return Spec{
			Kind: KindLoad, Config: &cfg,
			Load:   &wave.Workload{Pattern: "uniform", Load: 0.1, FixedLength: 64},
			Warmup: 100, Measure: 1000,
		}
	}
	// certify proves sp and reports whether the verdict came from the cache.
	certify := func(sp Spec) (*verify.Certificate, bool) {
		t.Helper()
		hits := s.metrics.verifyCacheHits.Load()
		proofs := s.metrics.verifyCertified.Load() + s.metrics.verifyRejected.Load()
		cert, err := s.certifyConfig(sp.simConfig(), sp.Faults)
		if err != nil {
			t.Fatal(err)
		}
		hit := s.metrics.verifyCacheHits.Load() == hits+1
		proved := s.metrics.verifyCertified.Load()+s.metrics.verifyRejected.Load() == proofs+1
		if hit == proved {
			t.Fatalf("certification both hit and proved (or neither): hit=%v proved=%v", hit, proved)
		}
		return cert, hit
	}

	a, hit := certify(base())
	if hit {
		t.Fatal("cold certification hit the cache")
	}
	b, hit := certify(base())
	if !hit || a != b {
		t.Fatalf("repeat certification: hit=%v, same certificate=%v", hit, a == b)
	}

	hits := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"seed", func(sp *Spec) { sp.Config.Seed += 7 }},
		{"load", func(sp *Spec) { sp.Load.Load = 0.3 }},
		{"window", func(sp *Spec) { sp.Warmup, sp.Measure = 500, 5000 }},
		{"cache capacity", func(sp *Spec) { sp.Config.CacheCapacity++ }},
		{"message length", func(sp *Spec) { sp.Load.FixedLength = 16 }},
	}
	for _, c := range hits {
		sp := base()
		c.mutate(&sp)
		if cert, hit := certify(sp); !hit || cert != a {
			t.Errorf("%s: changed a non-prover input but missed the cache", c.name)
		}
	}

	misses := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"radix", func(sp *Spec) { sp.Config.Topology.Radix = []int{6, 6} }},
		{"routing", func(sp *Spec) { sp.Config.Routing = "dor" }},
		{"vcs", func(sp *Spec) { sp.Config.NumVCs++ }},
		{"protocol", func(sp *Spec) { sp.Config.Protocol = "carp" }},
		{"switches", func(sp *Spec) { sp.Config.NumSwitches++ }},
		{"misroutes", func(sp *Spec) { sp.Config.MaxMisroutes++ }},
		{"retry limit", func(sp *Spec) { sp.Config.ProbeRetryLimit++ }},
		{"recovery timeout", func(sp *Spec) { sp.Config.RecoveryTimeout = 64 }},
		{"static faults", func(sp *Spec) { sp.Faults = 4 }},
		{"permanent fault schedule", func(sp *Spec) {
			sp.Config.FaultSchedule = wave.FaultScheduleConfig{Count: 3, Start: 100, Spacing: 50}
		}},
		// With static faults configured the seed redraws the plan.
		{"static faults, new seed", func(sp *Spec) { sp.Faults, sp.Config.Seed = 4, sp.Config.Seed+1 }},
	}
	for _, c := range misses {
		sp := base()
		c.mutate(&sp)
		if _, hit := certify(sp); hit {
			t.Errorf("%s: changed a prover input but hit the cache", c.name)
		}
	}

	faulted := base()
	faulted.Faults = 4
	c, hit := certify(faulted)
	if !hit {
		t.Fatal("repeat faulted certification missed the cache")
	}
	if c.Residual == nil || !c.Certified {
		t.Fatalf("faulted default config: %+v", c)
	}
}

// TestDrainingSubmitSkipsCertification: a draining server refuses a
// submission before validating or proving it.
func TestDrainingSubmitSkipsCertification(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	cfg := SimConfig(wave.DefaultConfig())
	cfg.Topology.Radix = []int{32, 32}
	_, err := s.Submit(Spec{
		Kind: KindLoad, Config: &cfg,
		Load:   &wave.Workload{Pattern: "uniform", Load: 0.1, FixedLength: 64},
		Warmup: 100, Measure: 1000,
	})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit on a draining server: %v, want ErrDraining", err)
	}
	// The three sources of the waved_verify_* counters.
	if n := s.metrics.verifyCertified.Load() + s.metrics.verifyRejected.Load() +
		s.metrics.verifyCacheHits.Load(); n != 0 {
		t.Fatalf("draining submit touched the prover (%d verify events)", n)
	}
}

// TestScheduledPermanentFaultsCertified: a fault schedule's permanent events
// flow into the residual proof with the exact channels the run would
// disable; transient (repairing) faults do not.
func TestScheduledPermanentFaultsCertified(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})

	cfg := wave.DefaultConfig()
	cfg.FaultSchedule = wave.FaultScheduleConfig{Count: 6, Start: 100, Spacing: 50}
	cert, err := s.certifyConfig(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Certified || cert.Residual == nil || cert.NumFaults != 6 {
		t.Fatalf("scheduled-fault certificate: certified=%v residual=%v faults=%d",
			cert.Certified, cert.Residual, cert.NumFaults)
	}

	cfg.FaultSchedule.Repair = 25
	cert, err = s.certifyConfig(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cert.NumFaults != 0 || cert.Residual != nil {
		t.Fatalf("transient faults produced a residual proof: %+v", cert)
	}
}
