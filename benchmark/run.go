package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/routing"
	"repro/wave"
)

// runOpts selects one measured run of one workload.
type runOpts struct {
	w       *workload
	seed    uint64
	seconds float64
	// scale divides every window: 1 for a real run, quickScale for -quick.
	scale int64
	// setups is the number of fresh child processes that each time a cold
	// set-up; 0 measures one set-up in this process instead (-quick).
	setups int
	// traceOut, when set, receives the Chrome trace of the first traced run.
	traceOut string
}

func (o runOpts) full() bool { return o.scale == 1 }

// runInfo is what a run reports beside its metrics: printed on standard
// output as the line before the result, and kept in results files.
type runInfo struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	// Reps is the number of measured repetitions (sim) or jobs (serve).
	Reps int `json:"reps"`
	// StatsDigest is the SHA-256 of wave.Stats shared by every repetition.
	StatsDigest string `json:"stats_digest,omitempty"`
	// Samples lists per-repetition values behind the reported medians.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// JobTailPercentile is the highest percentile of job time this run's
	// sample count (Reps; cold jobs on serve) supports, i.e. with >= 10
	// samples beyond it, and JobTailMs its value. Information, not a metric:
	// a simulation workload fits 3-9 jobs in a run, which supports only p50.
	JobTailPercentile float64 `json:"job_tail_percentile"`
	JobTailMs         float64 `json:"job_tail_ms"`
	JobTailSamples    int     `json:"job_tail_samples"`
	CalibBeforeNs     float64 `json:"calib_before_ns"`
	CalibAfterNs      float64 `json:"calib_after_ns"`
	// Noisy marks a run whose host speed changed by more than 10 % between
	// the calibration before and the one after.
	Noisy bool   `json:"noisy"`
	Error string `json:"error,omitempty"`
}

func (in *runInfo) setTail(jobMs []float64) {
	in.JobTailSamples = len(jobMs)
	in.JobTailPercentile = supportedTail(len(jobMs))
	in.JobTailMs = percentile(jobMs, in.JobTailPercentile)
}

func (in *runInfo) endCalib() {
	in.CalibAfterNs = calibrate()
	d := in.CalibAfterNs - in.CalibBeforeNs
	in.Noisy = d > 0.1*in.CalibBeforeNs || -d > 0.1*in.CalibBeforeNs
}

// setupSample is one cold set-up, as a child process (or -quick) reports it.
type setupSample struct {
	SetupS          float64 `json:"setup_s"`
	TopologyBuildMs float64 `json:"topology_build_ms"`
	TableBuildMs    float64 `json:"table_build_ms"`
	TableBytes      int     `json:"table_bytes"`
	WaveNewMs       float64 `json:"wave_new_ms"`
}

// setupOnce performs one set-up, timed from t0 (the process start in a
// child). Untraced it is what the user pays: wave.New for a simulation,
// server + listener + first cold job for the serve workload. Traced it calls
// the layers one by one — topology build, routing function + cold table
// selection, then wave.New, which finds the table cached — so the three
// spans add up to the cold wave.New.
func setupOnce(w *workload, seed uint64, scale int64, traced bool, t0 time.Time) (setupSample, error) {
	cfg := w.config(seed)
	if traced {
		return setupByLayer(cfg)
	}
	if w.serve {
		d, err := serveSetup(w, seed, scale)
		if err != nil {
			return setupSample{}, err
		}
		s := setupSample{SetupS: time.Since(t0).Seconds()}
		return s, d.stop()
	}
	sim, err := wave.New(cfg)
	if err != nil {
		return setupSample{}, err
	}
	s := setupSample{SetupS: time.Since(t0).Seconds()}
	sim.Close()
	return s, nil
}

// setupByLayer is the traced set-up: one span per layer.
func setupByLayer(cfg wave.Config) (setupSample, error) {
	var s setupSample
	t := time.Now()
	topo, err := cfg.Topology.Build()
	if err != nil {
		return s, err
	}
	s.TopologyBuildMs = time.Since(t).Seconds() * 1e3
	t = time.Now()
	fn, err := routing.New(cfg.Routing, topo, cfg.NumVCs)
	if err != nil {
		return s, err
	}
	_, info := routing.SelectTableCached(fn, topo, routing.DefaultTableMaxNodes)
	s.TableBuildMs = time.Since(t).Seconds() * 1e3
	s.TableBytes = info.Bytes
	t = time.Now()
	sim, err := wave.New(cfg)
	if err != nil {
		return s, err
	}
	s.WaveNewMs = time.Since(t).Seconds() * 1e3
	sim.Close()
	return s, nil
}

// setupSamples times o.setups cold set-ups, each in a fresh child process of
// this program, one after the other.
func setupSamples(o runOpts, traced bool) ([]setupSample, error) {
	if o.setups == 0 {
		s, err := setupOnce(o.w, o.seed, o.scale, traced, time.Now())
		return []setupSample{s}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	var out []setupSample
	for i := 0; i < o.setups; i++ {
		cmd := exec.Command(exe, "-setup-child", "-workload", o.w.name,
			"-seed", fmt.Sprint(o.seed), "-trace", trace)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var s setupSample
		if err := json.Unmarshal(bytes.TrimSpace(raw), &s); err != nil {
			return nil, fmt.Errorf("set-up child output %q: %w", raw, err)
		}
		out = append(out, s)
	}
	return out, nil
}

func column(ss []setupSample, f func(setupSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// failedResult reports a run that could not produce its metrics.
func failedResult(in *runInfo, attempted int64, err error) (*result, *runInfo) {
	in.Error = err.Error()
	return &result{Correct: false, Attempted: max(attempted, 1), Failed: max(attempted, 1),
		Metrics: map[string]metric{}}, in
}

// runEndToEnd measures one workload with tracing off and reports every
// end-to-end metric.
func runEndToEnd(o runOpts) (*result, *runInfo) {
	in := &runInfo{Workload: o.w.name, Seed: o.seed, Seconds: o.seconds, Samples: map[string][]float64{}}
	setups, err := setupSamples(o, false)
	if err != nil {
		return failedResult(in, 0, err)
	}
	setupS := column(setups, func(s setupSample) float64 { return s.SetupS })
	in.Samples["setup_s"] = setupS
	in.CalibBeforeNs = calibrate()

	var vals map[string]float64
	var attempted int64
	if o.w.serve {
		vals, attempted, err = serveEndToEnd(o, in)
	} else {
		vals, attempted, err = simEndToEnd(o, in)
	}
	if err != nil {
		return failedResult(in, attempted, err)
	}
	in.endCalib()
	vals["setup_s"] = median(setupS)
	vals["peak_rss_mb"] = peakRSSMB()
	return &result{Correct: true, Attempted: attempted, Metrics: withUnits(endToEnd, vals)}, in
}

// simEndToEnd repeats config -> result until the window is used up. Every
// repetition uses the same seed, so all must produce one wave.Stats.
func simEndToEnd(o runOpts, in *runInfo) (map[string]float64, int64, error) {
	w := o.w
	_, meas := w.window(o.scale)
	var first *repOut
	var attempted int64
	var cps, jobMs []float64
	t0 := time.Now()
	for first == nil || time.Since(t0).Seconds() < o.seconds {
		// Start each repetition from a collected heap, so peak memory is
		// one run's and not a function of how many runs fit the window.
		runtime.GC()
		rep, err := runRep(w, o.seed, o.scale, false)
		if err != nil {
			return nil, attempted, err
		}
		attempted += rep.stats.Protocol.Sent
		if err := checkRep(w, rep.stats, rep.res, meas, o.full()); err != nil {
			return nil, attempted, err
		}
		if first == nil {
			first = rep
		} else if rep.stats != first.stats {
			return nil, attempted, fmt.Errorf("%s: repetition %d of seed %d produced different wave.Stats", w.name, len(cps), o.seed)
		}
		cps = append(cps, rep.cyclesPerS())
		jobMs = append(jobMs, rep.totalS*1e3)
	}
	wall := time.Since(t0).Seconds()

	if w.pinnedTwin != "" {
		twin, err := runRep(findWorkload(w.pinnedTwin), o.seed, o.scale, false)
		if err != nil {
			return nil, attempted, err
		}
		if twin.stats != first.stats {
			return nil, attempted, fmt.Errorf("%s: wave.Stats differ from pinned twin %s:\n this %+v\n twin %+v",
				w.name, w.pinnedTwin, first.stats, twin.stats)
		}
	}

	in.Reps = len(cps)
	in.StatsDigest = statsDigest(first.stats)
	in.Samples["sim_cycles_per_s"] = cps
	in.Samples["job_ms"] = jobMs
	in.setTail(jobMs)
	return map[string]float64{
		"sim_cycles_per_s":        median(cps),
		"msg_latency_mean_cycles": first.res.AvgLatency,
		"msg_latency_p99_cycles":  first.res.P99Latency,
		"accepted_load_ratio":     first.res.Throughput / w.load.Load,
		"job_p50_ms":              median(jobMs),
		"jobs_per_s":              float64(len(jobMs)) / wall,
	}, attempted, nil
}

// serveEndToEnd runs the closed loop against a warmed in-process waved.
func serveEndToEnd(o runOpts, in *runInfo) (map[string]float64, int64, error) {
	w := o.w
	out, err := serveLoop(o, o.seconds)
	if err != nil {
		return nil, int64(out.attempted), err
	}
	cold := out.totals(false)
	in.Reps = len(out.jobs)
	in.Samples["job_cold_ms"] = cold
	in.setTail(cold)
	return map[string]float64{
		"sim_cycles_per_s":        float64(out.cycles) / out.wallS,
		"msg_latency_mean_cycles": mean(out.latMean),
		"msg_latency_p99_cycles":  mean(out.latP99),
		"accepted_load_ratio":     mean(out.thr) / w.load.Load,
		"job_p50_ms":              median(cold),
		"jobs_per_s":              float64(len(out.jobs)) / out.wallS,
	}, int64(out.attempted), nil
}
