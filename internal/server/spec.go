// Package server implements waved's simulation-serving core: a bounded
// job queue with explicit backpressure feeding a worker pool, an in-memory
// LRU result store, NDJSON progress streaming and Prometheus-text metrics,
// all over the deterministic wave simulator. Because the simulator is
// bit-deterministic, a job's result depends only on its spec — never on
// server concurrency, queue position or wall-clock timing — and the result
// bytes for identical specs are identical (enforced by the e2e tests).
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/resultcache"
	"repro/wave"
)

// Job kinds accepted in Spec.Kind.
const (
	// KindLoad runs open-loop traffic (wave.Simulator.RunLoadContext).
	KindLoad = "load"
	// KindClosed runs request-reply traffic (RunClosedLoopContext).
	KindClosed = "closed"
)

// SimConfig is wave.Config with merge-over-defaults JSON decoding: absent
// fields keep their wave.DefaultConfig values, so a client can submit
// {"protocol": "clrp"} without restating the whole configuration. Field
// names match wave.Config (JSON matching is case-insensitive).
type SimConfig wave.Config

// UnmarshalJSON decodes b over a fresh DefaultConfig. Unknown keys are
// refused: a misspelt field would otherwise run its default silently, and
// a custom unmarshaler does not inherit the caller's DisallowUnknownFields.
func (c *SimConfig) UnmarshalJSON(b []byte) error {
	*c = SimConfig(wave.DefaultConfig())
	return decodeStrict(bytes.NewReader(b), (*wave.Config)(c))
}

// decodeStrict decodes one JSON value from r into v, refusing keys that
// match no field. Every request body goes through it.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Spec describes one job. Exactly the fields for its Kind must be set;
// the rest stay zero. Submit validates and fills scale defaults, so the
// spec echoed in job views shows the values that actually ran.
type Spec struct {
	Kind string `json:"kind"`

	// Config overrides the simulator configuration (nil = DefaultConfig).
	Config *SimConfig `json:"config,omitempty"`
	// Faults injects this many deterministic link faults before the run.
	Faults int `json:"faults,omitempty"`

	// Load/Warmup/Measure configure a KindLoad job.
	Load    *wave.Workload `json:"load,omitempty"`
	Warmup  int64          `json:"warmup,omitempty"`
	Measure int64          `json:"measure,omitempty"`

	// Closed/MaxCycles configure a KindClosed job.
	Closed    *wave.ClosedWorkload `json:"closed,omitempty"`
	MaxCycles int64                `json:"max_cycles,omitempty"`

	// IntervalCycles is the progress-snapshot period (0 = server default).
	IntervalCycles int64 `json:"interval_cycles,omitempty"`
	// TimeoutSec caps the job's runtime (0 = server default deadline).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// simConfig returns the effective simulator configuration.
func (sp *Spec) simConfig() wave.Config {
	if sp.Config != nil {
		return wave.Config(*sp.Config)
	}
	return wave.DefaultConfig()
}

// cacheKey returns the spec's content address: the SHA-256 of the canonical
// effective spec. "Effective" means post-normalize with every default
// materialised — the simulator config merged over DefaultConfig — and with
// the fields that cannot affect the result bytes zeroed out: timeout_sec,
// the progress interval and the ignored Workers field. Two submissions that
// would run the same simulation hash identically regardless of JSON field
// order or which defaults the client spelled out; that address is what the
// result cache and the single-flight table dedupe on.
func (sp *Spec) cacheKey() (string, error) {
	cp := *sp
	cp.TimeoutSec = 0
	cp.IntervalCycles = 0
	ec := SimConfig(sp.simConfig())
	ec.Workers = 0
	cp.Config = &ec
	return resultcache.Key(&cp)
}

// normalize validates sp and fills scale defaults from the server config.
func (s *Server) normalize(sp *Spec) error {
	if sp.TimeoutSec < 0 || sp.IntervalCycles < 0 || sp.Faults < 0 {
		return errors.New("timeout_sec, interval_cycles and faults must be >= 0")
	}
	if sp.IntervalCycles == 0 {
		sp.IntervalCycles = s.cfg.DefaultInterval
	}
	cfg := sp.simConfig()
	if cfg.Workers < 0 {
		// Reject at submit time, not as a late job failure (wave.New refuses
		// a negative value; every other value is ignored).
		return fmt.Errorf("config.workers must be >= 0 (the value is otherwise ignored), got %d", cfg.Workers)
	}
	if m := cfg.WaveClockMult; !(m > 0) || math.IsInf(m, 0) {
		// JSON carries no NaN or infinity, but zero and negative values must
		// not wait for wave.New to fail them inside the job either.
		return fmt.Errorf("config.waveclockmult must be positive and finite, got %g", m)
	}
	switch sp.Kind {
	case KindLoad:
		if sp.Load == nil {
			return errors.New(`a "load" job needs a "load" workload object`)
		}
		if err := sp.Load.Validate(); err != nil {
			return err
		}
		if sp.Warmup < 0 || sp.Measure < 0 {
			return errors.New("warmup and measure must be >= 0")
		}
		if sp.Measure == 0 {
			sp.Measure = 10_000
		}
	case KindClosed:
		if sp.Closed == nil {
			return errors.New(`a "closed" job needs a "closed" workload object`)
		}
		if err := sp.Closed.Validate(); err != nil {
			return err
		}
		if sp.MaxCycles < 0 {
			return errors.New("max_cycles must be >= 0")
		}
		if sp.MaxCycles == 0 {
			sp.MaxCycles = 50_000_000
		}
	default:
		return fmt.Errorf("unknown job kind %q (want %q or %q)", sp.Kind, KindLoad, KindClosed)
	}
	return nil
}
