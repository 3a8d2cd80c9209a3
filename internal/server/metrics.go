package server

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics aggregates the daemon's operational counters. Counters are
// monotonic over the server's lifetime; gauges are sampled at scrape time
// in WriteMetrics.
type metrics struct {
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
	running   atomic.Int64
	cycles    atomic.Int64

	// Dynamic-fault recovery totals, accumulated from each completed
	// simulation job's final Stats (runSim).
	faultsInjected    atomic.Int64
	circuitsTorn      atomic.Int64
	setupRetries      atomic.Int64
	wormholeFallbacks atomic.Int64

	// Static-certification counters (POST /v1/verify and submit gating).
	// Cache hits are counted separately and do not re-count the verdict.
	verifyCertified atomic.Int64
	verifyRejected  atomic.Int64
	verifyCacheHits atomic.Int64

	// inflightJoins counts submissions coalesced onto an identical live job
	// by the single-flight table (the result-cache counters themselves live
	// in resultcache.Cache; the exposition folds joins into the hit total —
	// either way the submission was answered without a new simulation).
	inflightJoins atomic.Int64
}

// WriteMetrics renders the Prometheus text exposition format (0.0.4).
// waved_cycles_per_second sums each running job's rate over its last
// reporting interval — a live view of aggregate simulation speed.
func (s *Server) WriteMetrics(w io.Writer) {
	var rate float64
	s.store.each(func(j *Job) {
		rate += j.Rate()
	})
	type row struct {
		name, typ, help string
		value           float64
	}
	rows := []row{
		{"waved_queue_depth", "gauge", "Jobs waiting in the submit queue.",
			float64(s.queue.depth())},
		{"waved_queue_capacity", "gauge", "Submit queue capacity.",
			float64(s.cfg.QueueCap)},
		{"waved_running_jobs", "gauge", "Jobs currently executing.",
			float64(s.metrics.running.Load())},
		{"waved_store_jobs", "gauge", "Job records held in the result store.",
			float64(s.store.size())},
		{"waved_cycles_per_second", "gauge",
			"Aggregate simulation rate across running jobs.", rate},
		{"waved_cycles_total", "counter", "Simulated cycles across all jobs.",
			float64(s.metrics.cycles.Load())},
		{"waved_jobs_submitted_total", "counter", "Jobs accepted into the queue.",
			float64(s.metrics.submitted.Load())},
		{"waved_jobs_rejected_total", "counter",
			"Submissions refused with 429 (queue full).",
			float64(s.metrics.rejected.Load())},
		{"waved_jobs_completed_total", "counter",
			"Jobs that executed a simulation to completion (cache hits and coalesced twins are counted under waved_cache_hits_total instead).",
			float64(s.metrics.completed.Load())},
		{"waved_jobs_failed_total", "counter", "Jobs finished with an error.",
			float64(s.metrics.failed.Load())},
		{"waved_jobs_cancelled_total", "counter",
			"Jobs cancelled by clients or by shutdown.",
			float64(s.metrics.cancelled.Load())},
		{"waved_faults_injected_total", "counter",
			"Dynamic wave-channel faults injected across completed jobs.",
			float64(s.metrics.faultsInjected.Load())},
		{"waved_circuits_torn_total", "counter",
			"Established circuits torn down by dynamic faults.",
			float64(s.metrics.circuitsTorn.Load())},
		{"waved_setup_retries_total", "counter",
			"Circuit-setup sequences re-armed by the retry/backoff path.",
			float64(s.metrics.setupRetries.Load())},
		{"waved_wormhole_fallbacks_total", "counter",
			"Messages that degraded to wormhole after setup failure.",
			float64(s.metrics.wormholeFallbacks.Load())},
		{"waved_verify_certified_total", "counter",
			"Configurations statically certified deadlock- and livelock-free.",
			float64(s.metrics.verifyCertified.Load())},
		{"waved_verify_rejected_total", "counter",
			"Configurations rejected with a proof counterexample.",
			float64(s.metrics.verifyRejected.Load())},
		{"waved_verify_cache_hits_total", "counter",
			"Certification requests answered from the verdict cache.",
			float64(s.metrics.verifyCacheHits.Load())},
	}
	cs := s.cache.Stats()
	storeHits, storeMisses, storeEvictions := s.store.counters()
	rows = append(rows,
		row{"waved_cache_hits_total", "counter",
			"Submissions answered without a new simulation: stored result bytes or coalesced onto an identical in-flight job.",
			float64(cs.Hits + s.metrics.inflightJoins.Load())},
		row{"waved_cache_misses_total", "counter",
			"Result-cache lookups that found no stored bytes.",
			float64(cs.Misses)},
		row{"waved_cache_evictions_total", "counter",
			"Entries evicted from the result cache's memory tier.",
			float64(cs.Evictions)},
		row{"waved_cache_disk_hits_total", "counter",
			"Result-cache hits promoted from the disk tier.",
			float64(cs.DiskHits)},
		row{"waved_store_hits_total", "counter",
			"Job-ID lookups that resolved in the store.",
			float64(storeHits)},
		row{"waved_store_misses_total", "counter",
			"Job-ID lookups that missed (unknown or evicted IDs).",
			float64(storeMisses)},
		row{"waved_store_evictions_total", "counter",
			"Terminal job records evicted from the store LRU.",
			float64(storeEvictions)},
	)
	for _, r := range rows {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n",
			r.name, r.help, r.name, r.typ, r.name, r.value)
	}

	// Per-running-job gauge: cycles/s over the last reporting interval.
	fmt.Fprintf(w, "# HELP waved_job_cycles_per_second Simulation rate of each running job over its last reporting interval.\n# TYPE waved_job_cycles_per_second gauge\n")
	s.store.each(func(j *Job) {
		if j.State() != StateRunning {
			return
		}
		fmt.Fprintf(w, "waved_job_cycles_per_second{job=%q} %g\n", j.ID, j.Rate())
	})
}
