package server

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzSpec feeds arbitrary request bodies to the strict decoder every
// handler uses, both as one job spec and as a /v1/batch body, then runs the
// submit-time validation and the content address on what decodes. Nothing
// may panic, and every spec normalize accepts must survive a marshal and
// strict re-decode with its cache key unchanged: the key is what the result
// cache and the single-flight table dedupe on.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		quickSpec(1, 3000),
		typoConfigSpec,
		"{",
		`{"kindd":"load"}`,
		`{"kind":"weird"}`,
		`{"kind":"load"}`,
		`{"kind":"closed"}`,
		`{"kind":"experiment","experiment":"e99"}`,
		`{"kind":"experiment","experiment":" E1 ","timeout_sec":-0}`,
		`{"kind":"closed","closed":{},"config":{"protocol":"wormhole","seed":42}}`,
		`{"kind":"load","config":{"workers":-3},"load":{"pattern":"uniform","load":0.05,"fixedlength":16}}`,
		`{"config":{"protocl":"clrp"}}`,
		`{"protocol":"wormhole","seed":42}`,
		`{"specs":[` + quickSpec(33, 3000) + `,{"kind":"weird"},` + typoConfigSpec + `]}`,
	} {
		f.Add(seed)
	}
	s := New(Config{})
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	f.Fuzz(func(t *testing.T, body string) {
		var sp Spec
		if decodeStrict(strings.NewReader(body), &sp) == nil {
			checkSpecRoundTrip(t, s, sp)
		}
		var req batchRequest
		if decodeStrict(strings.NewReader(body), &req) == nil {
			for _, raw := range req.Specs {
				var sp Spec
				if decodeStrict(bytes.NewReader(raw), &sp) == nil {
					checkSpecRoundTrip(t, s, sp)
				}
			}
		}
	})
}

// checkSpecRoundTrip normalizes sp and, if it is accepted, checks that its
// marshalled form decodes strictly to a spec with the same cache key.
func checkSpecRoundTrip(t *testing.T, s *Server, sp Spec) {
	t.Helper()
	if s.normalize(&sp) != nil {
		return
	}
	key, err := sp.cacheKey()
	if err != nil {
		t.Fatalf("cacheKey of a normalized spec: %v", err)
	}
	b, err := json.Marshal(&sp)
	if err != nil {
		t.Fatalf("marshal a normalized spec: %v", err)
	}
	var back Spec
	if err := decodeStrict(bytes.NewReader(b), &back); err != nil {
		t.Fatalf("strict decode of %s: %v", b, err)
	}
	if key2, err := back.cacheKey(); err != nil || key2 != key {
		t.Fatalf("cache key changed across a round trip of %s: %s -> %s (%v)", b, key, key2, err)
	}
}
