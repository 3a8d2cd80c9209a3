package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resultcache"
)

// Sentinel submission errors; the HTTP layer maps them to status codes.
var (
	// ErrQueueFull: the bounded queue is at capacity (429 + Retry-After).
	ErrQueueFull = errors.New("job queue full")
	// ErrDraining: the server is shutting down and not accepting jobs (503).
	ErrDraining = errors.New("server draining, not accepting jobs")
)

// Config sizes a Server. Zero fields take the documented defaults.
type Config struct {
	// QueueCap bounds jobs waiting to run (default 16).
	QueueCap int
	// Workers is the number of concurrently running jobs (default
	// GOMAXPROCS: one job is exactly one thread).
	Workers int
	// StoreCap bounds retained job records, LRU-evicting terminal jobs
	// (default 256).
	StoreCap int
	// DefaultInterval is the progress-snapshot period in cycles for jobs
	// that don't set interval_cycles (default 1000).
	DefaultInterval int64
	// DefaultTimeout caps jobs that don't set timeout_sec (default 10m;
	// negative disables the default deadline).
	DefaultTimeout time.Duration
	// CacheCap bounds the content-addressed result cache's memory tier
	// (default 256 entries).
	CacheCap int
	// CacheDir, when non-empty, roots the cache's disk tier: results are
	// written through as content-named files and survive restarts and
	// memory eviction.
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.StoreCap <= 0 {
		c.StoreCap = 256
	}
	if c.DefaultInterval <= 0 {
		c.DefaultInterval = 1000
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	if c.DefaultTimeout < 0 {
		c.DefaultTimeout = 0
	}
	if c.CacheCap <= 0 {
		c.CacheCap = 256
	}
	return c
}

// Server is the simulation-serving core: queue, worker pool, store,
// content-addressed result cache and metrics. Create with New; stop with
// Shutdown.
type Server struct {
	cfg      Config
	queue    *jobQueue
	store    *store
	cache    *resultcache.Cache
	flights  flightTable
	metrics  metrics
	verdicts verdictCache

	nextID   atomic.Int64
	draining atomic.Bool

	wg           sync.WaitGroup
	shutdownOnce sync.Once
}

// flightTable is the single-flight index over live jobs by content
// address: the first submission of a key becomes the leader and actually
// runs; identical submissions arriving while it is live join as followers
// and are settled with the leader's bytes, so N concurrent twins cost one
// simulation. The table's mutex also serialises the cache-consult /
// leader-install decision in Submit against leader completion, closing the
// window where a twin could slip between the cache miss and the join.
type flightTable struct {
	mu sync.Mutex
	m  map[string]*flight
}

type flight struct {
	leader    *Job
	followers []*Job
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		queue:   newJobQueue(cfg.QueueCap),
		store:   newStore(cfg.StoreCap),
		cache:   resultcache.New(cfg.CacheCap, cfg.CacheDir),
		flights: flightTable{m: make(map[string]*flight)},
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue.ch {
				s.execute(j)
			}
		}()
	}
	return s
}

// Submit validates and enqueues a job spec. The returned Job is already
// resolvable in the store under its ID. Errors: validation failures,
// ErrQueueFull (back off and retry) or ErrDraining.
//
// Submission is content-addressed: the effective spec's SHA-256 is looked
// up in the result cache (a hit settles the job done immediately, no
// queueing) and then in the single-flight table (an identical job already
// live absorbs this one as a follower). Only a genuinely novel spec
// occupies a queue slot and runs a simulation — sound because results are
// a pure function of the spec.
func (s *Server) Submit(spec Spec) (*Job, error) {
	// A draining server takes nothing new, so it spends no time validating
	// or proving a spec it would refuse anyway.
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if err := s.normalize(&spec); err != nil {
		return nil, err
	}
	// Jobs are certified deadlock- and livelock-free before they touch the
	// queue; an unsafe configuration comes back as *UncertifiableError with
	// the counterexample attached.
	if err := s.certifySpec(&spec); err != nil {
		return nil, err
	}
	key, err := spec.cacheKey()
	if err != nil {
		return nil, fmt.Errorf("canonicalize spec: %w", err)
	}
	now := time.Now()
	id := fmt.Sprintf("j%08d", s.nextID.Add(1))
	j := newJob(id, spec, now)
	j.cacheKey = key

	s.flights.mu.Lock()
	if raw, ok := s.cache.Get(key); ok {
		s.flights.mu.Unlock()
		j.finish(StateDone, raw, "", now)
		s.store.add(j)
		s.metrics.submitted.Add(1)
		return j, nil
	}
	if f, ok := s.flights.m[key]; ok {
		f.followers = append(f.followers, j)
		s.flights.mu.Unlock()
		s.store.add(j)
		s.metrics.submitted.Add(1)
		s.metrics.inflightJoins.Add(1)
		return j, nil
	}
	// Novel spec: install as leader and queue for a worker. Store and queue
	// are updated under the flight lock so a twin submitted concurrently
	// either sees this flight or arrives after it is backed out.
	s.flights.m[key] = &flight{leader: j}
	s.store.add(j)
	ok, closed := s.queue.push(j)
	if closed || !ok {
		delete(s.flights.m, key)
		s.flights.mu.Unlock()
		s.store.remove(id)
		if closed {
			return nil, ErrDraining
		}
		s.metrics.rejected.Add(1)
		return nil, ErrQueueFull
	}
	s.flights.mu.Unlock()
	s.metrics.submitted.Add(1)
	return j, nil
}

// completeFlight settles the single-flight entry for a terminal leader: a
// successful result is published to the content cache, and every follower
// that joined while the job was live is finished with the leader's exact
// bytes. A failed or cancelled leader propagates its terminal state to the
// followers instead, and nothing is cached — errors are not content.
func (s *Server) completeFlight(j *Job) {
	if j.cacheKey == "" {
		return
	}
	// Publish before retiring the flight: a twin submitted in between then
	// finds the result in the cache instead of starting a second run.
	_, st, result, errMsg, _ := j.since(0)
	if st == StateDone && result != nil {
		s.cache.Put(j.cacheKey, result)
	}
	s.flights.mu.Lock()
	f := s.flights.m[j.cacheKey]
	if f == nil || f.leader != j {
		s.flights.mu.Unlock()
		return
	}
	delete(s.flights.m, j.cacheKey)
	s.flights.mu.Unlock()

	now := time.Now()
	for _, fj := range f.followers {
		// A follower individually cancelled while waiting stays cancelled;
		// finish is a no-op on terminal jobs.
		fj.finish(st, result, errMsg, now)
	}
}

// CacheStats snapshots the result cache counters (plus single-flight
// joins, which the metrics page folds into the hit count).
func (s *Server) CacheStats() resultcache.Stats { return s.cache.Stats() }

// Job resolves a job ID.
func (s *Server) Job(id string) (*Job, bool) { return s.store.get(id) }

// Cancel requests cancellation: queued jobs settle immediately, running
// jobs stop at the next cycle boundary. Returns false once terminal.
func (s *Server) Cancel(j *Job) bool {
	prior, acted := j.requestCancel(time.Now())
	if acted && prior == StateQueued {
		// Never reaches a worker; count it here. Running jobs are counted
		// by execute when the context error surfaces.
		s.metrics.cancelled.Add(1)
	}
	return acted
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// retryAfter estimates seconds until queue space frees, for Retry-After.
// Ceiling division over the worker count, clamped to at least 1: RFC 9110
// requires a non-negative integer, and a 0 would invite an immediate retry
// against a still-full queue.
func (s *Server) retryAfter() int {
	secs := (s.queue.depth() + s.cfg.Workers - 1) / s.cfg.Workers
	if secs < 1 {
		secs = 1
	}
	return secs
}

// Shutdown stops intake, cancels still-queued jobs and waits for running
// jobs to finish. If ctx expires first, running jobs are cancelled (they
// stop at the next cycle boundary, keeping their progress backlog and a
// clean cancelled state) and Shutdown waits for them to settle before
// returning ctx's error. Idempotent; later calls return nil immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutdownOnce.Do(func() {
		s.draining.Store(true)
		s.store.each(func(j *Job) {
			if j.State() == StateQueued {
				s.Cancel(j)
			}
		})
		s.queue.close()
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.store.each(func(j *Job) { j.requestCancel(time.Now()) })
			<-done
			err = ctx.Err()
		}
	})
	return err
}
