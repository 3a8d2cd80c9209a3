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
// Snapshot must be taken between cycles (never from inside a callback) and
// only captures closure-free pending work: ScheduleAt timers and the other
// test-only closure APIs make a snapshot fail with a descriptive error.
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
	sw, err := snapshot.NewWriter(w)
	if err != nil {
		return err
	}
	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return fmt.Errorf("wave: snapshot config: %w", err)
	}
	sw.Bytes(cfgJSON)
	sw.I64(s.now)
	progressed, stallRun := s.wd.SaveState()
	sw.Bool(progressed)
	sw.I64(stallRun)

	if s.load != nil {
		sw.Bool(true)
		wlJSON, err := json.Marshal(s.load.w)
		if err != nil {
			return fmt.Errorf("wave: snapshot workload: %w", err)
		}
		sw.Bytes(wlJSON)
		sw.I64(s.load.warmup)
		sw.I64(s.load.measure)
		sw.I64(s.load.end)
		sw.I64(s.load.drainDeadline)
		if err := s.load.gen.EncodeState(sw); err != nil {
			return err
		}
		if err := s.load.run.EncodeState(sw); err != nil {
			return err
		}
	} else {
		sw.Bool(false)
	}

	if err := s.mgr.EncodeState(sw); err != nil {
		return err
	}
	return sw.Close()
}

// Restore rebuilds a simulator from a Snapshot stream. The returned
// simulator is positioned exactly where the original was: Step, Run, Drain
// and — when the snapshot was taken mid-RunLoad — ResumeLoad continue
// bit-identically to the uninterrupted original. The trailing digest is
// verified before the simulator is returned.
func Restore(rd io.Reader) (*Simulator, error) {
	sr, err := snapshot.NewReader(rd)
	if err != nil {
		return nil, err
	}
	cfgJSON := sr.Bytes()
	if sr.Err() != nil {
		return nil, sr.Err()
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
	s.now = sr.I64()
	s.wd.RestoreState(sr.Bool(), sr.I64())

	if sr.Bool() {
		wlJSON := sr.Bytes()
		if sr.Err() != nil {
			return nil, sr.Err()
		}
		var wl Workload
		if err := json.Unmarshal(wlJSON, &wl); err != nil {
			return nil, fmt.Errorf("wave: restore workload: %w", err)
		}
		gen, err := s.buildGenerator(wl)
		if err != nil {
			return nil, err
		}
		ld := &loadRun{w: wl, gen: gen}
		ld.warmup = sr.I64()
		ld.measure = sr.I64()
		ld.end = sr.I64()
		ld.drainDeadline = sr.I64()
		if err := gen.DecodeState(sr); err != nil {
			return nil, err
		}
		ld.run = &stats.Run{}
		if err := ld.run.DecodeState(sr); err != nil {
			return nil, err
		}
		s.load = ld
	}

	if err := s.mgr.DecodeState(sr); err != nil {
		return nil, err
	}
	if err := sr.Close(); err != nil {
		return nil, err
	}
	return s, nil
}

// InLoadRun reports whether a RunLoad is in progress (restored or
// interrupted) that ResumeLoad would continue.
func (s *Simulator) InLoadRun() bool { return s.load != nil }
