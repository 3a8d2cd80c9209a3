package wave

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/pcs"
	"repro/internal/topology"
)

// FaultEvent is one explicit dynamic fault in a FaultScheduleConfig: the
// wave channel (Link, Switch) fails at cycle Cycle (>= 1); when Repair is
// positive the channel returns to service Repair cycles after injection,
// otherwise the fault is permanent.
type FaultEvent struct {
	Cycle  int64
	Link   int
	Switch int
	Repair int64
}

// FaultScheduleConfig arms deterministic mid-run wave-channel faults. The
// random part draws Count distinct channels (seeded) and injects the i-th at
// Start+i*Spacing; Events adds explicit faults on top. All injections ride
// the fabric's event queue, so a faulted run repeats bit for bit and
// survives a snapshot.
type FaultScheduleConfig struct {
	// Count is the number of random distinct faulty channels (0 = none).
	Count int
	// Start is the injection cycle of the first random fault (default 1).
	Start int64
	// Spacing separates consecutive random injections, in cycles.
	Spacing int64
	// Repair, when positive, repairs each random fault that many cycles
	// after its injection (transient faults); 0 makes them permanent.
	Repair int64
	// Seed drives the random draw; 0 borrows Config.Seed + 2.
	Seed uint64
	// Events lists explicit faults, scheduled in addition to the random ones.
	Events []FaultEvent
}

// empty reports whether the schedule arms nothing.
func (f FaultScheduleConfig) empty() bool { return f.Count == 0 && len(f.Events) == 0 }

// PermanentFaultChannels resolves the wave channels the configuration's
// fault schedule leaves permanently out of service — exactly the events
// installFaultSchedule would register with Repair == 0, using the same seed
// (Config.Seed + 2) and start-cycle defaults, so the static prover
// (internal/verify) certifies precisely the residual network the run ends up
// with. Transient faults (Repair > 0) are excluded: they heal, and the
// retry/backoff machinery covers them dynamically.
func (c Config) PermanentFaultChannels(topo topology.Topology) ([]pcs.Channel, error) {
	fs := c.FaultSchedule
	var out []pcs.Channel
	if fs.Count > 0 && fs.Repair == 0 {
		start := fs.Start
		if start == 0 {
			start = 1
		}
		seed := fs.Seed
		if seed == 0 {
			seed = c.Seed + 2
		}
		sch, err := fault.RandomSchedule(topo, c.NumSwitches, fs.Count, start, fs.Spacing, 0, seed)
		if err != nil {
			return nil, fmt.Errorf("wave: fault schedule: %w", err)
		}
		for _, ev := range sch.Events {
			out = append(out, ev.Ch)
		}
	}
	for _, ev := range fs.Events {
		if ev.Repair == 0 {
			out = append(out, pcs.Channel{Link: topology.LinkID(ev.Link), Switch: ev.Switch})
		}
	}
	return out, nil
}

// installFaultSchedule resolves Config.FaultSchedule into scheduled fabric
// events. Called once at construction, while the fabric clock is still 0.
func (s *Simulator) installFaultSchedule() error {
	fs := s.cfg.FaultSchedule
	if fs.empty() {
		return nil
	}
	fab := s.mgr.Fab
	if fs.Count > 0 {
		start := fs.Start
		if start == 0 {
			start = 1
		}
		seed := fs.Seed
		if seed == 0 {
			seed = s.cfg.Seed + 2
		}
		sch, err := fault.RandomSchedule(s.topo, s.cfg.NumSwitches, fs.Count, start, fs.Spacing, fs.Repair, seed)
		if err != nil {
			return fmt.Errorf("wave: fault schedule: %w", err)
		}
		for _, ev := range sch.Events {
			if err := fab.ScheduleFault(ev.Cycle, ev.Ch, ev.Repair); err != nil {
				return fmt.Errorf("wave: fault schedule: %w", err)
			}
		}
	}
	for _, ev := range fs.Events {
		ch := pcs.Channel{Link: topology.LinkID(ev.Link), Switch: ev.Switch}
		if err := fab.ScheduleFault(ev.Cycle, ch, ev.Repair); err != nil {
			return fmt.Errorf("wave: fault schedule: %w", err)
		}
	}
	return nil
}
