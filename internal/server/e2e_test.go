package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"net/http/httptest"

	"repro/wave"
)

// fetchResult downloads the raw result bytes for a done job.
func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, body := doReq(t, ts, "GET", "/v1/jobs/"+id+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: status %d body %s", id, resp.StatusCode, body)
	}
	return []byte(body)
}

// TestServingDeterminism is the acceptance proof: the same config+seed
// submitted twice, concurrently with decoy jobs on other workers, returns
// byte-identical final stats.
func TestServingDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueCap: 16})
	specs := []string{
		quickSpec(42, 3000), // twin A
		quickSpec(42, 3000), // twin B
		quickSpec(7, 3000),  // decoys keep the other workers busy
		quickSpec(9, 3000),
	}
	views := make([]View, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = submit(t, ts, sp)
		}()
	}
	wg.Wait()
	results := make([][]byte, len(specs))
	for i, v := range views {
		final := waitState(t, ts, v.ID, State.Terminal)
		if final.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", v.ID, final.State, final.Error)
		}
		results[i] = fetchResult(t, ts, v.ID)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Fatalf("identical specs returned different results:\n%s\n%s",
			results[0], results[1])
	}
	if bytes.Equal(results[0], results[2]) {
		t.Fatal("different seeds returned identical results; comparison is vacuous")
	}
}

// TestBadWorkloadRefusedDaemonServes: a load spec whose length mix cannot
// be drawn from — a zero-flit short message panicked on the worker
// goroutine, taking the whole daemon down — is answered 400 naming the
// field, and the daemon goes on serving the next job.
func TestBadWorkloadRefusedDaemonServes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := `{"kind":"load","config":{"topology":{"kind":"torus","radix":[4,4]}},` +
		`"load":{"Pattern":"uniform","Load":0.1,"BimodalShort":0,"BimodalLong":8,"BimodalPLong":0.5},` +
		`"warmup":10,"measure":100}`
	resp, body := doReq(t, ts, "POST", "/v1/jobs", bad)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "BimodalShort") {
		t.Fatalf("bad workload: status %d body %s, want 400 naming BimodalShort", resp.StatusCode, body)
	}
	v := submit(t, ts, quickSpec(5, 500))
	if final := waitState(t, ts, v.ID, State.Terminal); final.State != StateDone {
		t.Fatalf("job after the refusal finished %s (%s)", final.State, final.Error)
	}
	if resp, body := doReq(t, ts, "GET", "/healthz", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the refusal: status %d body %s", resp.StatusCode, body)
	}
}

// TestBadClosedWorkloadRefusedDaemonServes: a closed job that cannot run
// is a 400 at submit, not a queued job that fails, and the daemon serves
// the next job.
func TestBadClosedWorkloadRefusedDaemonServes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	bad := `{"kind":"closed","config":{"topology":{"kind":"torus","radix":[4,4]}},` +
		`"closed":{"reqflits":0,"replyflits":8,"outstanding":1,"requests":2}}`
	resp, body := doReq(t, ts, "POST", "/v1/jobs", bad)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "request/reply sizes") {
		t.Fatalf("bad closed workload: status %d body %s, want 400 naming the sizes", resp.StatusCode, body)
	}
	v := submit(t, ts, quickSpec(5, 500))
	if final := waitState(t, ts, v.ID, State.Terminal); final.State != StateDone {
		t.Fatalf("job after the refusal finished %s (%s)", final.State, final.Error)
	}
}

// TestStreamNDJSON: every stream line is valid JSON; snapshots precede the
// final done line, which carries the terminal state and the result.
func TestStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v := submit(t, ts, quickSpec(11, 20_000))
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snapshots int
	var last Progress
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		var p Progress
		if err := json.Unmarshal(line, &p); err != nil {
			t.Fatalf("invalid NDJSON line %q: %v", line, err)
		}
		if p.Type == "snapshot" {
			snapshots++
			if p.Stats == nil || p.Cycle == 0 {
				t.Fatalf("snapshot line missing fields: %q", line)
			}
		}
		last = p
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if snapshots < 2 {
		t.Fatalf("saw %d snapshots, want >= 2", snapshots)
	}
	if last.Type != "done" || last.State != StateDone || last.Result == nil {
		t.Fatalf("stream did not end with a done line: %+v", last)
	}
}

// TestCancelRunningJob: a cancelled running job stops within one reporting
// interval and is marked cancelled.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Effectively unbounded measure: only cancellation can end this job.
	v := submit(t, ts, quickSpec(5, 2_000_000_000))
	// Wait until it is demonstrably running (a snapshot was published).
	waitState(t, ts, v.ID, func(st State) bool { return st == StateRunning })
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := doReq(t, ts, "GET", "/v1/jobs/"+v.ID, "")
		var view View
		if err := json.Unmarshal([]byte(body), &view); err != nil {
			t.Fatal(err)
		}
		if view.Snapshots > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never published a snapshot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancelled := time.Now()
	resp, _ := doReq(t, ts, "DELETE", "/v1/jobs/"+v.ID, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := waitState(t, ts, v.ID, State.Terminal)
	took := time.Since(cancelled)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	// 100-cycle intervals complete in microseconds on a 4x4 torus; seconds
	// of slack keeps the bound robust under -race on loaded machines while
	// still catching a job that ignores cancellation.
	if took > 10*time.Second {
		t.Fatalf("cancellation took %v", took)
	}
	// The stream of a cancelled job terminates with state=cancelled.
	resp, body := doReq(t, ts, "GET", "/v1/jobs/"+v.ID+"/stream", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var lastLine Progress
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &lastLine); err != nil {
		t.Fatal(err)
	}
	if lastLine.Type != "done" || lastLine.State != StateCancelled {
		t.Fatalf("final stream line: %+v", lastLine)
	}
	// Cancelling again is a harmless no-op.
	resp, _ = doReq(t, ts, "DELETE", "/v1/jobs/"+v.ID, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repeat cancel status %d", resp.StatusCode)
	}
}

// TestBackpressure429: with one worker and a one-slot queue, a third
// long-running job is refused with 429 and a Retry-After hint.
func TestBackpressure429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	// Distinct seeds: identical specs would coalesce onto the running job
	// via the single-flight table and never occupy a queue slot.
	running := submit(t, ts, quickSpec(1, 2_000_000_000))
	waitState(t, ts, running.ID, func(st State) bool { return st == StateRunning })
	queued := submit(t, ts, quickSpec(2, 2_000_000_000)) // fills the single queue slot

	resp, body := doReq(t, ts, "POST", "/v1/jobs", quickSpec(3, 2_000_000_000))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d body %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(body, "queue full") {
		t.Fatalf("body %q does not explain the rejection", body)
	}

	// Metrics reflect the live queue and the rejection.
	_, metrics := doReq(t, ts, "GET", "/metrics", "")
	if !strings.Contains(metrics, "waved_queue_depth 1") {
		t.Fatalf("metrics missing queue depth:\n%s", metrics)
	}
	if !strings.Contains(metrics, "waved_jobs_rejected_total 1") {
		t.Fatalf("metrics missing rejection count:\n%s", metrics)
	}

	// Cancel both so teardown doesn't wait on the deadline.
	doReq(t, ts, "DELETE", "/v1/jobs/"+queued.ID, "")
	doReq(t, ts, "DELETE", "/v1/jobs/"+running.ID, "")
	final := waitState(t, ts, queued.ID, State.Terminal)
	if final.State != StateCancelled {
		t.Fatalf("queued job finished %s, want cancelled without running", final.State)
	}
}

// TestMetricsDuringRun: /metrics reports a positive simulation rate and a
// running job while one is in flight.
func TestMetricsDuringRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	v := submit(t, ts, quickSpec(2, 2_000_000_000))
	deadline := time.Now().Add(30 * time.Second)
	for {
		view := waitState(t, ts, v.ID, func(st State) bool { return st == StateRunning })
		if view.Snapshots >= 2 && view.CyclesPerSec > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no positive rate observed: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, metrics := doReq(t, ts, "GET", "/metrics", "")
	if !strings.Contains(metrics, "waved_running_jobs 1") {
		t.Fatalf("metrics missing running job:\n%s", metrics)
	}
	rate := promValue(t, metrics, "waved_cycles_per_second")
	if rate <= 0 {
		t.Fatalf("waved_cycles_per_second = %g, want > 0\n%s", rate, metrics)
	}
	if promValue(t, metrics, "waved_cycles_total") <= 0 {
		t.Fatalf("waved_cycles_total not advancing:\n%s", metrics)
	}
	// The running job reports a per-job rate series labelled with its ID.
	if !strings.Contains(metrics, `waved_job_cycles_per_second{job="`+v.ID+`"} `) {
		t.Fatalf("metrics missing per-job rate gauge for job %s:\n%s", v.ID, metrics)
	}
	doReq(t, ts, "DELETE", "/v1/jobs/"+v.ID, "")
	waitState(t, ts, v.ID, State.Terminal)
}

// promValue extracts a sample value from Prometheus text output.
func promValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}

// TestGracefulShutdownDrains: Shutdown finishes the running job (its
// result intact and valid) and cancels the queued one.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 1, QueueCap: 4})
	workload := &wave.Workload{Pattern: "uniform", Load: 0.05, FixedLength: 16}
	cfg := SimConfig(wave.DefaultConfig())
	cfg.Topology = wave.TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	spec := Spec{Kind: KindLoad, Config: &cfg, Load: workload, Warmup: 100, Measure: 5000}

	// The draining job runs long enough (hundreds of ms) that Shutdown
	// demonstrably overlaps it, yet finishes well inside the drain budget.
	longSpec := spec
	longSpec.Measure = 150_000
	runningJob, err := s.Submit(longSpec)
	if err != nil {
		t.Fatal(err)
	}
	queuedJob, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker claim the first job; otherwise Shutdown legitimately
	// cancels it while still queued.
	for runningJob.State() == StateQueued {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if st := runningJob.State(); st != StateDone {
		t.Fatalf("in-flight job drained to %s, want done", st)
	}
	_, _, result, _, _ := runningJob.since(0)
	var res Result
	if err := json.Unmarshal(result, &res); err != nil {
		t.Fatalf("drained result corrupt: %v", err)
	}
	if res.Load == nil || res.Load.Delivered == 0 {
		t.Fatalf("drained result empty: %+v", res)
	}
	if st := queuedJob.State(); st != StateCancelled {
		t.Fatalf("queued job drained to %s, want cancelled", st)
	}
	if _, err := s.Submit(spec); err != ErrDraining {
		t.Fatalf("submit after shutdown: err = %v, want ErrDraining", err)
	}
}

// TestShutdownDeadlineCancelsRunning: when the drain budget expires, the
// running job is cancelled cleanly instead of blocking shutdown forever.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	s := New(Config{Workers: 1})
	cfg := SimConfig(wave.DefaultConfig())
	cfg.Topology = wave.TopologyConfig{Kind: "torus", Radix: []int{4, 4}}
	j, err := s.Submit(Spec{
		Kind: KindLoad, Config: &cfg,
		Load:    &wave.Workload{Pattern: "uniform", Load: 0.05, FixedLength: 16},
		Measure: 2_000_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for j.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if st := j.State(); st != StateCancelled {
		t.Fatalf("job state = %s, want cancelled", st)
	}
}

// TestFaultMetricsAccumulate: a job armed with a dynamic fault schedule and
// retry budget feeds the fault-recovery counters into /metrics when it
// completes.
func TestFaultMetricsAccumulate(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	spec := `{
		"kind": "load",
		"config": {
			"topology": {"kind": "torus", "radix": [4, 4]}, "seed": 3,
			"faultschedule": {"count": 4, "start": 200, "spacing": 25, "repair": 300},
			"proberetrylimit": 3, "retrybackoffcycles": 16
		},
		"load": {"pattern": "uniform", "load": 0.05, "fixedlength": 24},
		"warmup": 100, "measure": 2000
	}`
	v := submit(t, ts, spec)
	final := waitState(t, ts, v.ID, State.Terminal)
	if final.State != StateDone {
		t.Fatalf("faulted job finished %s (%s)", final.State, final.Error)
	}
	_, metrics := doReq(t, ts, "GET", "/metrics", "")
	if !strings.Contains(metrics, "waved_faults_injected_total 4") {
		t.Fatalf("metrics missing fault injections:\n%s", metrics)
	}
	for _, name := range []string{
		"waved_circuits_torn_total",
		"waved_setup_retries_total",
		"waved_wormhole_fallbacks_total",
	} {
		if !strings.Contains(metrics, name+" ") {
			t.Fatalf("metrics missing %s:\n%s", name, metrics)
		}
	}
}
