package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// newTestServer starts a Server behind an httptest server and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// quickSpec is a 4x4-torus load job finishing in well under a second.
func quickSpec(seed uint64, measure int64) string {
	return fmt.Sprintf(`{
		"kind": "load",
		"config": {"topology": {"kind": "torus", "radix": [4, 4]}, "seed": %d},
		"load": {"pattern": "uniform", "load": 0.05, "fixedlength": 16},
		"warmup": 100, "measure": %d, "interval_cycles": 100
	}`, seed, measure)
}

// typoConfigSpec misspells a config key; it must be refused, not run with
// the default protocol.
const typoConfigSpec = `{"kind":"load","config":{"protocl":"clrp"},"load":{"pattern":"uniform","load":0.05,"fixedlength":16}}`

func doReq(t *testing.T, ts *httptest.Server, method, path, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

// waitState polls until the job reaches a state accepted by ok.
func waitState(t *testing.T, ts *httptest.Server, id string, ok func(State) bool) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, body := doReq(t, ts, "GET", "/v1/jobs/"+id, "")
		var v View
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("bad job view %q: %v", body, err)
		}
		if ok(v.State) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the wanted state", id)
	return View{}
}

func submit(t *testing.T, ts *httptest.Server, spec string) View {
	t.Helper()
	resp, body := doReq(t, ts, "POST", "/v1/jobs", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var v View
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHandlers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		wantCode                 int
		wantSub                  string
	}{
		{"healthz ok", "GET", "/healthz", "", 200, `"status": "ok"`},
		{"metrics", "GET", "/metrics", "", 200, "waved_queue_depth"},
		{"submit bad json", "POST", "/v1/jobs", "{", 400, "bad spec"},
		{"submit unknown field", "POST", "/v1/jobs", `{"kindd":"load"}`, 400, "unknown field"},
		{"submit unknown kind", "POST", "/v1/jobs", `{"kind":"weird"}`, 400, "unknown job kind"},
		{"load without workload", "POST", "/v1/jobs", `{"kind":"load"}`, 400, "workload"},
		{"closed without workload", "POST", "/v1/jobs", `{"kind":"closed"}`, 400, "workload"},
		{"unknown experiment", "POST", "/v1/jobs", `{"kind":"experiment"}`, 400, "unknown job kind"},
		{"config unknown field", "POST", "/v1/jobs", typoConfigSpec, 400, `unknown field \"protocl\"`},
		{"verify config unknown field", "POST", "/v1/verify", `{"config":{"protocl":"clrp"}}`, 400, `unknown field \"protocl\"`},
		// The full-scan and algorithmic-routing oracles are gone and were
		// never configuration: a spec naming either is a misspelt key.
		{"full-scan oracle refused", "POST", "/v1/jobs",
			`{"kind":"load","config":{"disableactivitytracking":true},"load":{"pattern":"uniform","load":0.05,"fixedlength":16}}`,
			400, `unknown field \"disableactivitytracking\"`},
		{"algorithmic-routing oracle refused", "POST", "/v1/jobs",
			`{"kind":"load","config":{"disableroutingtable":true},"load":{"pattern":"uniform","load":0.05,"fixedlength":16}}`,
			400, `unknown field \"disableroutingtable\"`},
		{"negative workers", "POST", "/v1/jobs",
			`{"kind":"load","config":{"workers":-3},"load":{"pattern":"uniform","load":0.05,"fixedlength":16}}`,
			400, "config.workers must be"},
		{"zero clock multiplier", "POST", "/v1/jobs",
			`{"kind":"load","config":{"waveclockmult":0},"load":{"pattern":"uniform","load":0.05,"fixedlength":16}}`,
			400, "config.waveclockmult must be positive and finite"},
		{"negative clock multiplier", "POST", "/v1/jobs",
			`{"kind":"load","config":{"waveclockmult":-2},"load":{"pattern":"uniform","load":0.05,"fixedlength":16}}`,
			400, "config.waveclockmult must be positive and finite"},
		{"zero-flit bimodal short", "POST", "/v1/jobs",
			`{"kind":"load","load":{"pattern":"uniform","load":0.1,"bimodalshort":0,"bimodallong":8,"bimodalplong":0.5}}`,
			400, "BimodalShort"},
		{"bimodal probability above one", "POST", "/v1/jobs",
			`{"kind":"load","load":{"pattern":"uniform","load":0.1,"bimodalshort":4,"bimodallong":8,"bimodalplong":1.5}}`,
			400, "BimodalPLong"},
		{"zero-flit closed request", "POST", "/v1/jobs",
			`{"kind":"closed","closed":{"reqflits":0,"replyflits":8,"outstanding":1,"requests":2}}`,
			400, "request/reply sizes"},
		{"negative working set", "POST", "/v1/jobs",
			`{"kind":"load","load":{"pattern":"uniform","load":0.1,"fixedlength":8,"WorkingSet":-3}}`,
			400, "WorkingSet"},
		{"negative closed redraw period", "POST", "/v1/jobs",
			`{"kind":"closed","closed":{"reqflits":4,"replyflits":8,"outstanding":1,"requests":2,"workingset":4,"redrawperiod":-1}}`,
			400, "RedrawPeriod"},
		{"get unknown job", "GET", "/v1/jobs/zzz", "", 404, "no such job"},
		{"result unknown job", "GET", "/v1/jobs/zzz/result", "", 404, "no such job"},
		{"stream unknown job", "GET", "/v1/jobs/zzz/stream", "", 404, "no such job"},
		{"cancel unknown job", "DELETE", "/v1/jobs/zzz", "", 404, "no such job"},
		{"list empty", "GET", "/v1/jobs", "", 200, `"jobs"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doReq(t, ts, tc.method, tc.path, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantCode, body)
			}
			if !strings.Contains(body, tc.wantSub) {
				t.Fatalf("body %q missing %q", body, tc.wantSub)
			}
		})
	}
}

func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v := submit(t, ts, quickSpec(1, 3000))
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job state = %s", v.State)
	}

	// Result is 409 until the job finishes.
	resp, _ := doReq(t, ts, "GET", "/v1/jobs/"+v.ID+"/result", "")
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("early result: status %d", resp.StatusCode)
	}

	final := waitState(t, ts, v.ID, State.Terminal)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	if final.Result == nil {
		t.Fatal("done view carries no result")
	}
	var res Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindLoad || res.Load == nil || res.Stats == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
	if res.Load.Delivered == 0 {
		t.Fatal("job delivered no messages")
	}

	// The job shows up in the listing.
	_, body := doReq(t, ts, "GET", "/v1/jobs", "")
	if !strings.Contains(body, v.ID) {
		t.Fatalf("listing %q missing job %s", body, v.ID)
	}
}

func TestClosedLoopJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v := submit(t, ts, `{
		"kind": "closed",
		"config": {"topology": {"kind": "torus", "radix": [4, 4]}, "seed": 3},
		"closed": {"pattern": "transpose", "reqflits": 4, "replyflits": 16,
		           "outstanding": 1, "requests": 2}
	}`)
	final := waitState(t, ts, v.ID, State.Terminal)
	if final.State != StateDone {
		t.Fatalf("closed job finished %s (%s)", final.State, final.Error)
	}
	var res Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Closed == nil || res.Closed.Completed == 0 {
		t.Fatalf("closed result empty: %+v", res)
	}
}

func TestFailedJobClassified(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// An unknown traffic pattern passes spec validation (it's a workload
	// detail) but fails at run time: state must be failed with the cause.
	v := submit(t, ts, `{
		"kind": "load",
		"config": {"topology": {"kind": "torus", "radix": [4, 4]}},
		"load": {"pattern": "nonsense", "load": 0.05, "fixedlength": 16},
		"measure": 500
	}`)
	final := waitState(t, ts, v.ID, State.Terminal)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "pattern") {
		t.Fatalf("error %q does not name the cause", final.Error)
	}
	resp, body := doReq(t, ts, "GET", "/v1/jobs/"+v.ID+"/result", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("failed job result: status %d body %s", resp.StatusCode, body)
	}
}

// TestRetryAfterNeverZero pins the Retry-After estimate: whatever the queue
// depth and worker count — including an empty queue, and depths that truncate
// to zero under integer division — the advertised wait is at least one
// second, and deep queues round up rather than down.
func TestRetryAfterNeverZero(t *testing.T) {
	cases := []struct {
		depth, workers, want int
	}{
		{0, 1, 1}, {0, 8, 1},
		{1, 4, 1}, {3, 4, 1}, // would be 0 under floor division
		{4, 4, 1},
		{5, 4, 2}, // ceiling, not floor
		{16, 2, 8},
	}
	for _, tc := range cases {
		s := &Server{cfg: Config{Workers: tc.workers}, queue: newJobQueue(32)}
		for i := 0; i < tc.depth; i++ {
			s.queue.push(&Job{})
		}
		if got := s.retryAfter(); got != tc.want {
			t.Errorf("retryAfter(depth=%d, workers=%d) = %d, want %d",
				tc.depth, tc.workers, got, tc.want)
		}
		if got := s.retryAfter(); got < 1 {
			t.Errorf("retryAfter(depth=%d, workers=%d) = %d, below 1s floor",
				tc.depth, tc.workers, got)
		}
	}
}

// TestRetryAfterHeaderParses drives the real 429 path and asserts the header
// a client sees is a parseable, positive integer (RFC 9110 delta-seconds).
func TestRetryAfterHeaderParses(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	// Distinct seeds: identical specs coalesce via the single-flight table
	// instead of filling the queue.
	running := submit(t, ts, quickSpec(101, 2_000_000_000))
	waitState(t, ts, running.ID, func(st State) bool { return st == StateRunning })
	queued := submit(t, ts, quickSpec(102, 2_000_000_000))

	resp, _ := doReq(t, ts, "POST", "/v1/jobs", quickSpec(103, 2_000_000_000))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", resp.Header.Get("Retry-After"), err)
	}
	if secs < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", secs)
	}

	doReq(t, ts, "DELETE", "/v1/jobs/"+queued.ID, "")
	doReq(t, ts, "DELETE", "/v1/jobs/"+running.ID, "")
	waitState(t, ts, queued.ID, State.Terminal)
	waitState(t, ts, running.ID, State.Terminal)
}
