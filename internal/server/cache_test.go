package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCacheKeyFieldOrder: two JSON spellings of the same spec — fields
// permuted at every level, defaults spelled out vs omitted, and the
// result-irrelevant fields (timeout_sec, interval_cycles) varied — must
// share one content address. This is the canonicalization contract the
// result cache, the single-flight table and the verdict cache all ride on.
func TestCacheKeyFieldOrder(t *testing.T) {
	a := `{
		"kind": "load",
		"config": {"topology": {"kind": "torus", "radix": [4, 4]}, "seed": 7},
		"load": {"pattern": "uniform", "load": 0.05, "fixedlength": 16},
		"warmup": 100, "measure": 3000, "interval_cycles": 100
	}`
	b := `{
		"measure": 3000, "warmup": 100,
		"load": {"fixedlength": 16, "load": 0.05, "pattern": "uniform"},
		"config": {"seed": 7, "topology": {"radix": [4, 4], "kind": "torus"}},
		"timeout_sec": 30,
		"kind": "load"
	}`
	c := `{
		"kind": "load",
		"config": {"topology": {"kind": "torus", "radix": [4, 4]}, "seed": 8},
		"load": {"pattern": "uniform", "load": 0.05, "fixedlength": 16},
		"warmup": 100, "measure": 3000
	}`
	s := New(Config{})
	defer shutdownServer(t, s)
	key := func(raw string) string {
		t.Helper()
		var sp Spec
		if err := json.Unmarshal([]byte(raw), &sp); err != nil {
			t.Fatal(err)
		}
		if err := s.normalize(&sp); err != nil {
			t.Fatal(err)
		}
		k, err := sp.cacheKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	ka, kb, kc := key(a), key(b), key(c)
	if ka != kb {
		t.Fatalf("permuted spellings of one spec hashed apart:\n a: %s\n b: %s", ka, kb)
	}
	if ka == kc {
		t.Fatal("specs differing only in seed collided; key is insensitive to the config")
	}
}

// TestCacheHitServesStoredBytes: a twin submitted after the original
// completes settles done instantly — no queueing, byte-identical result —
// and the hit shows up on /metrics.
func TestCacheHitServesStoredBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	first := submit(t, ts, quickSpec(21, 3000))
	if waitState(t, ts, first.ID, State.Terminal).State != StateDone {
		t.Fatal("seed job did not finish")
	}
	waitCachePublished(t, s, 1)
	r1 := fetchResult(t, ts, first.ID)

	twin := submit(t, ts, quickSpec(21, 3000))
	// No waitState: a cache hit must come back already done.
	if twin.State != StateDone {
		t.Fatalf("cache-hit twin submitted in state %s, want done", twin.State)
	}
	r2 := fetchResult(t, ts, twin.ID)
	if !bytes.Equal(r1, r2) {
		t.Fatalf("cached bytes differ from the original:\n%s\n%s", r1, r2)
	}
	_, metrics := doReq(t, ts, "GET", "/metrics", "")
	if !bytes.Contains([]byte(metrics), []byte("waved_cache_hits_total 1")) {
		t.Fatalf("metrics missing cache hit:\n%s", metrics)
	}
}

// TestBatchSingleFlight is the batch acceptance criterion: one /v1/batch
// of eight identical specs runs exactly one simulation; all eight jobs
// finish with byte-identical results and the cache counts at least seven
// hits.
func TestBatchSingleFlight(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 4})
	specs := make([]json.RawMessage, n)
	for i := range specs {
		specs[i] = json.RawMessage(quickSpec(33, 3000))
	}
	body, err := json.Marshal(map[string]any{"specs": specs})
	if err != nil {
		t.Fatal(err)
	}
	resp, rbody := doReq(t, ts, "POST", "/v1/batch", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, rbody)
	}
	var out struct {
		Jobs []struct {
			Job   *View  `json:"job"`
			Error string `json:"error"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(rbody), &out); err != nil {
		t.Fatalf("bad batch response %q: %v", rbody, err)
	}
	if len(out.Jobs) != n {
		t.Fatalf("batch returned %d items, want %d", len(out.Jobs), n)
	}
	var results [][]byte
	for i, item := range out.Jobs {
		if item.Job == nil {
			t.Fatalf("item %d rejected: %s", i, item.Error)
		}
		final := waitState(t, ts, item.Job.ID, State.Terminal)
		if final.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", item.Job.ID, final.State, final.Error)
		}
		results = append(results, fetchResult(t, ts, item.Job.ID))
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("batch twin %d returned different bytes", i)
		}
	}
	if got := s.metrics.completed.Load(); got != 1 {
		t.Fatalf("batch of %d identical specs ran %d simulations, want exactly 1", n, got)
	}
	hits := s.CacheStats().Hits + s.metrics.inflightJoins.Load()
	if hits < n-1 {
		t.Fatalf("cache hits = %d, want >= %d", hits, n-1)
	}
}

// TestBatchMixedSpecs: a batch of twins, novel specs and two malformed
// specs (an unknown kind, a misspelt config key) settles per item — each
// bad spec errors in place without poisoning its neighbours.
func TestBatchMixedSpecs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := fmt.Sprintf(`{"specs": [%s, %s, %s, {"kind": "weird"}, %s]}`,
		quickSpec(51, 3000), quickSpec(51, 3000), quickSpec(52, 3000), typoConfigSpec)
	resp, rbody := doReq(t, ts, "POST", "/v1/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d body %s", resp.StatusCode, rbody)
	}
	var out struct {
		Jobs []struct {
			Job   *View  `json:"job"`
			Error string `json:"error"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(rbody), &out); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 5; i++ {
		if out.Jobs[i].Error == "" || out.Jobs[i].Job != nil {
			t.Fatalf("malformed spec %d accepted: %+v", i, out.Jobs[i])
		}
	}
	if !strings.Contains(out.Jobs[4].Error, `unknown field "protocl"`) {
		t.Fatalf("misspelt config key: error %q", out.Jobs[4].Error)
	}
	for i := 0; i < 3; i++ {
		if out.Jobs[i].Job == nil {
			t.Fatalf("item %d rejected: %s", i, out.Jobs[i].Error)
		}
		if waitState(t, ts, out.Jobs[i].Job.ID, State.Terminal).State != StateDone {
			t.Fatalf("item %d did not finish done", i)
		}
	}
	if got := s.metrics.completed.Load(); got != 2 {
		t.Fatalf("ran %d simulations, want 2 (twins share one)", got)
	}
}

// TestEngineSettingsShareOneSimulation: Workers and the two oracle toggles
// cannot change a result byte (the determinism contract), so specs differing
// only in them share one content address, one simulation and one set of
// result bytes.
func TestEngineSettingsShareOneSimulation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	spec := func(engine string) string {
		return fmt.Sprintf(`{
			"kind": "load",
			"config": {"topology": {"kind": "torus", "radix": [4, 4]}, "seed": 61%s},
			"load": {"pattern": "uniform", "load": 0.05, "fixedlength": 16},
			"warmup": 100, "measure": 3000
		}`, engine)
	}
	variants := []string{"", `, "workers": 2`, `, "disableactivitytracking": true`, `, "disableroutingtable": true`}
	keys := map[string]bool{}
	specs := make([]string, len(variants))
	for i, v := range variants {
		specs[i] = spec(v)
		var sp Spec
		if err := json.Unmarshal([]byte(specs[i]), &sp); err != nil {
			t.Fatal(err)
		}
		if err := s.normalize(&sp); err != nil {
			t.Fatal(err)
		}
		k, err := sp.cacheKey()
		if err != nil {
			t.Fatal(err)
		}
		keys[k] = true
	}
	if len(keys) != 1 {
		t.Fatalf("engine-setting variants hashed to %d keys, want 1", len(keys))
	}
	var first []byte
	for i, raw := range specs {
		v := submit(t, ts, raw)
		if waitState(t, ts, v.ID, State.Terminal).State != StateDone {
			t.Fatalf("variant %d did not finish done", i)
		}
		got := fetchResult(t, ts, v.ID)
		if i == 0 {
			first = got
			waitCachePublished(t, s, 1)
		} else if !bytes.Equal(first, got) {
			t.Fatalf("variant %d returned different bytes", i)
		}
	}
	if got := s.metrics.completed.Load(); got != 1 {
		t.Fatalf("ran %d simulations for %d engine-setting variants, want 1", got, len(specs))
	}
}

// TestFailureNotCached: a failing spec is never published to the result
// cache — a later identical submission runs (and fails) again rather than
// replaying the error as content.
func TestFailureNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	bad := `{
		"kind": "load",
		"config": {"topology": {"kind": "torus", "radix": [4, 4]}},
		"load": {"pattern": "nonsense", "load": 0.05, "fixedlength": 16},
		"measure": 500
	}`
	v := submit(t, ts, bad)
	if waitState(t, ts, v.ID, State.Terminal).State != StateFailed {
		t.Fatal("bad workload did not fail")
	}
	if s.CacheStats().Hits != 0 || s.cache.Len() != 0 {
		t.Fatalf("failed result reached the cache: %+v", s.CacheStats())
	}
	again := submit(t, ts, bad)
	if again.State == StateDone {
		t.Fatal("second submission of a failing spec came back done")
	}
	if waitState(t, ts, again.ID, State.Terminal).State != StateFailed {
		t.Fatal("second submission did not fail independently")
	}
}

// TestCacheDiskTierSurvivesRestart: with -cache-dir set, a result written
// by one server is served — byte-identical, without running — by a fresh
// server over the same directory.
func TestCacheDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	v := submit(t, ts1, quickSpec(61, 3000))
	if waitState(t, ts1, v.ID, State.Terminal).State != StateDone {
		t.Fatal("seed job did not finish")
	}
	waitCachePublished(t, s1, 1)
	r1 := fetchResult(t, ts1, v.ID)
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("disk tier holds %d files, want 1", len(files))
	}
	if b, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(b, r1) {
		t.Fatalf("disk tier bytes differ from the served result (err %v)", err)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	twin := submit(t, ts2, quickSpec(61, 3000))
	if twin.State != StateDone {
		t.Fatalf("disk-tier twin submitted in state %s, want done", twin.State)
	}
	if r2 := fetchResult(t, ts2, twin.ID); !bytes.Equal(r1, r2) {
		t.Fatal("disk-tier result differs from the original")
	}
	if st := s2.CacheStats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
	if s2.metrics.completed.Load() != 0 {
		t.Fatal("fresh server re-ran a disk-cached spec")
	}
}

// TestStoreConcurrentTwinSpecs hammers submit/get/evict with twin specs
// from many goroutines against a tiny store — the -race exercise for the
// store counters, the single-flight table and the cache working together.
// Run with: go test -race -run TestStoreConcurrentTwinSpecs ./internal/server/
func TestStoreConcurrentTwinSpecs(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 32, StoreCap: 4, CacheCap: 2})
	const goroutines, iters = 8, 12
	var wg sync.WaitGroup
	ids := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Three distinct specs shared by all goroutines: every spec
				// is someone's twin, so the cache, the flight table and the
				// evicting store all see constant contention.
				v := submit(t, ts, quickSpec(uint64(70+i%3), 400))
				ids[g] = append(ids[g], v.ID)
				doReq(t, ts, "GET", "/v1/jobs/"+v.ID, "")
				doReq(t, ts, "GET", "/v1/jobs/"+v.ID+"/result", "")
				doReq(t, ts, "GET", "/v1/jobs", "")
			}
		}(g)
	}
	wg.Wait()
	for _, batch := range ids {
		for _, id := range batch {
			// The store may have evicted terminal twins (cap 4 « submissions);
			// surviving IDs must be terminal and done.
			if j, ok := s.Job(id); ok {
				if st := waitState(t, ts, id, State.Terminal).State; st != StateDone {
					t.Fatalf("job %s (%v) finished %s", id, j.Spec.Kind, st)
				}
			}
		}
	}
	hits, misses, evictions := s.store.counters()
	if hits == 0 || evictions == 0 {
		t.Fatalf("store counters hits=%d misses=%d evictions=%d: hammer never hit or evicted", hits, misses, evictions)
	}
	if got := s.metrics.completed.Load(); got > 3*iters {
		t.Fatalf("%d simulations for 3 distinct specs over %d submissions — dedup broken", got, goroutines*iters)
	}
}

// shutdownServer tears down a Server built without newTestServer.
func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// waitCachePublished blocks until the leader's deferred flight completion
// has published n results: a job reads "done" the moment finish runs, a
// beat before completeFlight caches the bytes, so tests that assert on
// cache behaviour wait for the publication itself.
func waitCachePublished(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.cache.Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("cache never reached %d published results", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
