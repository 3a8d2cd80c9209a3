package wave

// Checkpoint/resume. Snapshot serialises the complete simulator — the
// configuration (embedded as JSON so Restore needs nothing else), the
// clock, the watchdog, an in-progress RunLoad (traffic generator stream,
// latency series, phase bounds) and the entire protocol/fabric state — into
// the versioned, digest-stamped binary format of internal/snapshot.
// Restore rebuilds the simulator from the embedded configuration and
// overwrites its state; stepping the restored simulator is bit-identical
// to stepping the original, so checkpoint + resume reproduces an
// uninterrupted run's Stats exactly.
//
// Snapshot must be taken between cycles (never from inside a callback).
// Every scheduled fabric event is a serialisable descriptor and every
// pending completion reports through a handler registered at construction,
// so any state taken between cycles encodes.
// The structured protocol event log (EnableEventLog) is diagnostic output
// and is not captured; a restored simulator starts with an empty log.

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Snapshot writes the complete simulator state to w. The simulator remains
// usable; the checkpoint is a pure observation.
func (s *Simulator) Snapshot(w io.Writer) error {
	c, err := snapshot.NewEncoder(w)
	if err != nil {
		return err
	}
	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return fmt.Errorf("wave: snapshot config: %w", err)
	}
	c.Bytes(&cfgJSON)
	if err := s.state(c); err != nil {
		return err
	}
	return c.Close()
}

// Restore rebuilds a simulator from a Snapshot stream. The returned
// simulator is positioned exactly where the original was: Step, Run, Drain
// and — when the snapshot was taken mid-RunLoad — ResumeLoad continue
// bit-identically to the uninterrupted original. The stream's header and
// trailing digest are verified before anything is decoded or built.
func Restore(rd io.Reader) (*Simulator, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("wave: restore: %w", err)
	}
	c, err := snapshot.Open(data)
	if err != nil {
		return nil, err
	}
	var cfgJSON []byte
	c.Bytes(&cfgJSON)
	if err := c.Err(); err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, fmt.Errorf("wave: restore config: %w", err)
	}
	// The fault schedule's pending events ride the serialised event queue;
	// re-installing them here would double-inject.
	s, err := newSimulator(cfg, false)
	if err != nil {
		return nil, err
	}
	if err := s.state(c); err != nil {
		return nil, err
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	return s, nil
}

// state walks everything after the embedded configuration: the clock, the
// watchdog, an in-progress RunLoad and the protocol/fabric state.
func (s *Simulator) state(c *snapshot.Codec) error {
	snapshot.I64(c, &s.now)
	if c.Decoding() && s.now < 0 {
		// Messages sent after the resume would carry negative inject
		// times, which the protocol's in-flight window reads as delivered.
		return c.Failf("wave: snapshot clock %d is negative", s.now)
	}
	stallRun := s.wd.SaveState()
	snapshot.I64(c, &stallRun)
	s.wd.RestoreState(stallRun)

	inLoad := s.load != nil
	c.Bool(&inLoad)
	if inLoad {
		if err := s.loadState(c); err != nil {
			return err
		}
	}
	return s.mgr.State(c)
}

// loadState walks an in-progress RunLoad: the workload (embedded as JSON,
// from which the decoder rebuilds the traffic generator), the phase bounds,
// the generator's stream and the latency series.
func (s *Simulator) loadState(c *snapshot.Codec) error {
	var wlJSON []byte
	if !c.Decoding() {
		var err error
		if wlJSON, err = json.Marshal(s.load.w); err != nil {
			return fmt.Errorf("wave: snapshot workload: %w", err)
		}
	}
	c.Bytes(&wlJSON)
	if c.Decoding() {
		if err := c.Err(); err != nil {
			return err
		}
		var wl Workload
		if err := json.Unmarshal(wlJSON, &wl); err != nil {
			return fmt.Errorf("wave: restore workload: %w", err)
		}
		gen, err := s.buildGenerator(wl)
		if err != nil {
			return err
		}
		s.load = &loadRun{w: wl, gen: gen, run: &stats.Run{}}
	}
	ld := s.load
	snapshot.I64(c, &ld.warmup)
	snapshot.I64(c, &ld.measure)
	snapshot.I64(c, &ld.end)
	snapshot.I64(c, &ld.drainDeadline)
	if err := ld.gen.State(c); err != nil {
		return err
	}
	return ld.run.State(c)
}

// InLoadRun reports whether a RunLoad is in progress (restored or
// interrupted) that ResumeLoad would continue.
func (s *Simulator) InLoadRun() bool { return s.load != nil }
