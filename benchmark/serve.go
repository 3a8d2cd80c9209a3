package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/protocol"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/verify"
)

// The serve workload is a closed loop with one client: the next job is
// submitted only after the previous job's result bytes are in hand. Traffic
// crosses the host's loopback interface (httptest), never a real link.

// coldPerRepeat: every (coldPerRepeat+1)-th job repeats an earlier spec.
const coldPerRepeat = 4

// repeatWindow bounds how far back a repeat reaches, so the repeated spec is
// still inside the server's default 256-entry result cache.
const repeatWindow = 64

// jobTimes are the client-side spans of one job, in seconds.
type jobTimes struct {
	submit float64 // POST /v1/jobs sent -> response read
	run    float64 // GET /stream opened -> terminal line read
	fetch  float64 // GET /result sent -> bytes read
	total  float64 // POST sent -> result bytes read
	repeat bool
	bytes  int
}

// serveOut is one closed-loop run.
type serveOut struct {
	jobs      []jobTimes
	wallS     float64
	attempted int
	failed    int
	failures  []string
	// Simulated quantities summed over cold jobs' results.
	cycles               int64
	latMean, latP99, thr []float64
	hits, misses         int64
}

// waved is an in-process server behind a loopback listener.
type waved struct {
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
}

func startWaved() *waved {
	srv := server.New(server.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	return &waved{srv: srv, ts: ts, client: ts.Client()}
}

func (d *waved) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// specJSON renders the workload's simulation as a waved "load" job.
func specJSON(w *workload, cfgSeed uint64, scale int64) []byte {
	cfg := server.SimConfig(w.config(cfgSeed))
	load := w.load
	warm, meas := w.window(scale)
	raw, err := json.Marshal(server.Spec{
		Kind: server.KindLoad, Config: &cfg, Load: &load, Warmup: warm, Measure: meas,
	})
	if err != nil {
		panic(err) // plain data; cannot fail
	}
	return raw
}

// coldSeed gives job i of a run its never-seen simulator seed; job 0 is the
// set-up job.
func coldSeed(seed uint64, i int) uint64 { return seed<<24 + uint64(i) }

func (d *waved) get(path string) ([]byte, int, error) {
	resp, err := d.client.Get(d.ts.URL + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// runJob submits one spec and follows it to its result bytes.
func (d *waved) runJob(spec []byte) (jobTimes, []byte, error) {
	var jt jobTimes
	t0 := time.Now()
	resp, err := d.client.Post(d.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return jt, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return jt, nil, err
	}
	t1 := time.Now()
	jt.submit = t1.Sub(t0).Seconds()
	if resp.StatusCode/100 != 2 {
		return jt, nil, fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var view server.View
	if err := json.Unmarshal(body, &view); err != nil {
		return jt, nil, fmt.Errorf("submit: decode job view: %w", err)
	}

	// Follow the NDJSON stream to its terminal line.
	sresp, err := d.client.Get(d.ts.URL + "/v1/jobs/" + view.ID + "/stream")
	if err != nil {
		return jt, nil, err
	}
	var last server.Progress
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		var p server.Progress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			sresp.Body.Close()
			return jt, nil, fmt.Errorf("stream: bad line: %w", err)
		}
		last = p
	}
	sresp.Body.Close()
	if err := sc.Err(); err != nil {
		return jt, nil, fmt.Errorf("stream: %w", err)
	}
	t2 := time.Now()
	jt.run = t2.Sub(t1).Seconds()
	if last.Type != "done" || last.State != server.StateDone {
		return jt, nil, fmt.Errorf("job %s ended %q/%q: %s", view.ID, last.Type, last.State, last.Error)
	}

	result, code, err := d.get("/v1/jobs/" + view.ID + "/result")
	if err != nil {
		return jt, nil, err
	}
	t3 := time.Now()
	jt.fetch = t3.Sub(t2).Seconds()
	jt.total = t3.Sub(t0).Seconds()
	jt.bytes = len(result)
	if code != http.StatusOK {
		return jt, nil, fmt.Errorf("result: status %d: %s", code, bytes.TrimSpace(result))
	}
	return jt, result, nil
}

// serveSetup brings a fresh server up and runs its first cold job: the lazy
// set-up (routing table, CDG and verdict for the configuration) lands there.
func serveSetup(w *workload, seed uint64, scale int64) (*waved, error) {
	d := startWaved()
	if _, _, err := d.runJob(specJSON(w, coldSeed(seed, 0), scale)); err != nil {
		_ = d.stop()
		return nil, fmt.Errorf("%s: first job: %w", w.name, err)
	}
	return d, nil
}

// runServe drives the closed loop on a warmed server until `seconds` have
// passed (at least minJobs jobs). A failed job counts as failed and the loop
// goes on; the caller decides what failures mean.
func runServe(w *workload, d *waved, seed uint64, seconds float64, minJobs int, scale int64) *serveOut {
	out := &serveOut{}
	rng := sim.NewRNG(seed ^ 0x5e12e)
	type done struct {
		spec, result []byte
	}
	var cold []done
	base := d.srv.CacheStats()
	fail := func(format string, args ...any) {
		out.failed++
		if len(out.failures) < 5 {
			out.failures = append(out.failures, fmt.Sprintf(format, args...))
		}
	}

	t0 := time.Now()
	for i := 0; time.Since(t0).Seconds() < seconds || i < minJobs; i++ {
		repeat := i%(coldPerRepeat+1) == coldPerRepeat && len(cold) > 0
		var spec, want []byte
		if repeat {
			lo := max(0, len(cold)-repeatWindow)
			pick := cold[lo+rng.Intn(len(cold)-lo)]
			spec, want = pick.spec, pick.result
		} else {
			spec = specJSON(w, coldSeed(seed, i+1), scale)
		}
		out.attempted++
		jt, result, err := d.runJob(spec)
		jt.repeat = repeat
		if err != nil {
			fail("job %d: %v", i, err)
			continue
		}
		out.jobs = append(out.jobs, jt)
		if repeat {
			if !bytes.Equal(result, want) {
				fail("job %d: repeat result differs from the first result for the same spec", i)
			}
			continue
		}
		var res server.Result
		if err := json.Unmarshal(result, &res); err != nil || res.Load == nil || res.Stats == nil {
			fail("job %d: undecodable result (%v)", i, err)
			continue
		}
		if c := res.Stats.Protocol; c.Sent == 0 || c.Sent != c.DeliveredWormhole+c.DeliveredCircuit {
			fail("job %d: sent %d, delivered %d+%d", i, c.Sent, c.DeliveredWormhole, c.DeliveredCircuit)
			continue
		}
		cold = append(cold, done{spec, result})
		out.cycles += res.Stats.Cycle
		out.latMean = append(out.latMean, res.Load.AvgLatency)
		out.latP99 = append(out.latP99, res.Load.P99Latency)
		out.thr = append(out.thr, res.Load.Throughput)
	}
	out.wallS = time.Since(t0).Seconds()
	cs := d.srv.CacheStats()
	out.hits, out.misses = cs.Hits-base.Hits, cs.Misses-base.Misses
	return out
}

// serveLoop warms a fresh server with its first cold job, drives the closed
// loop for `seconds`, shuts the server down and checks the run.
func serveLoop(o runOpts, seconds float64) (*serveOut, error) {
	d, err := serveSetup(o.w, o.seed, o.scale)
	if err != nil {
		return &serveOut{}, err
	}
	out := runServe(o.w, d, o.seed, seconds, 2*(coldPerRepeat+1), o.scale)
	if err := d.stop(); err != nil {
		return out, fmt.Errorf("%s: server shutdown: %w", o.w.name, err)
	}
	return out, out.check(o.w, o.full())
}

// check applies the serve workload's run-level correctness checks.
func (o *serveOut) check(w *workload, subSaturation bool) error {
	if o.failed > 0 {
		return fmt.Errorf("%s: %d of %d jobs failed: %v", w.name, o.failed, o.attempted, o.failures)
	}
	var repeats int64
	for _, j := range o.jobs {
		if j.repeat {
			repeats++
		}
	}
	if o.hits != repeats {
		return fmt.Errorf("%s: result cache hits %d != %d repeated specs", w.name, o.hits, repeats)
	}
	if !subSaturation {
		return nil
	}
	// One 10k-cycle job holds ~1000 messages, so the ratio is checked on
	// the mean over the run's cold jobs.
	if r := mean(o.thr) / w.load.Load; r < minAccepted || r > maxAccepted {
		return fmt.Errorf("%s: accepted/offered load %.4f outside [%g, %g]", w.name, r, minAccepted, maxAccepted)
	}
	if lim := float64(w.measure) / 50; mean(o.latMean) > lim {
		return fmt.Errorf("%s: mean latency %.1f cycles exceeds measure/50 = %.0f", w.name, mean(o.latMean), lim)
	}
	return nil
}

// totals returns the POST -> result latencies in ms of cold or repeat jobs.
func (o *serveOut) totals(repeat bool) []float64 {
	var ms []float64
	for _, j := range o.jobs {
		if j.repeat == repeat {
			ms = append(ms, j.total*1e3)
		}
	}
	return ms
}

// certifyKernel times verify.Certify called directly on the workload's
// configuration, as the server does for a never-seen config. Returns ms.
func certifyKernel(w *workload, seed uint64) (float64, error) {
	cfg := w.config(seed)
	topo, err := cfg.Topology.Build()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	cert, err := verify.Certify(verify.Spec{
		Topo: topo, Routing: cfg.Routing, NumVCs: cfg.NumVCs,
		Protocol:    protocol.Kind(cfg.Protocol),
		NumSwitches: cfg.NumSwitches, MaxMisroutes: cfg.MaxMisroutes,
		ProbeRetryLimit: cfg.ProbeRetryLimit, RecoveryTimeout: cfg.RecoveryTimeout,
	})
	ms := time.Since(t0).Seconds() * 1e3
	if err != nil {
		return 0, err
	}
	if !cert.Certified {
		return 0, fmt.Errorf("%s: configuration not certified: %s", w.name, cert.Failure())
	}
	return ms, nil
}
