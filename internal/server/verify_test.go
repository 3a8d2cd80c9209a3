package server

import (
	"encoding/json"
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

// TestVerdictCache: repeat certification of the same effective configuration
// is answered from the cache; different fault counts are different keys.
func TestVerdictCache(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})

	cfg := wave.DefaultConfig()
	a, err := s.certifyConfig(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hits := s.metrics.verifyCacheHits.Load(); hits != 0 {
		t.Fatalf("cold certification hit the cache (%d)", hits)
	}
	b, err := s.certifyConfig(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache did not return the same certificate")
	}
	if hits := s.metrics.verifyCacheHits.Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	c, err := s.certifyConfig(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("faulted config shared the unfaulted verdict")
	}
	if c.Residual == nil || !c.Certified {
		t.Fatalf("faulted default config: %+v", c)
	}
	if got := s.metrics.verifyCertified.Load(); got != 2 {
		t.Fatalf("certified counter = %d, want 2", got)
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
