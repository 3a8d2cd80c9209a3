package sim

import "fmt"

// Watchdog is the empirical deadlock/livelock oracle used by the Theorem
// tests (paper section 4). The paper proves that CLRP and CARP always deliver
// every message in finite time; the watchdog turns that claim into a runtime
// check with two complementary conditions:
//
//   - Starvation: a message older than MaxAge cycles is still undelivered.
//     A deadlocked message never progresses, so with a bound comfortably
//     above worst-case contention this flags deadlock, and because MB-m
//     probes can wander, it equally flags livelock (a probe circling forever
//     keeps its message undelivered).
//
//   - Stall: the network holds in-flight work but no component moved any
//     work (flit movement, recovery abort, probe or control-flit hop, circuit
//     event) for StallWindow consecutive cycles. This catches whole-network
//     deadlock quickly, without waiting for MaxAge.
//
// The simulation loop calls Check once per cycle with what that cycle's
// Cycle call returned: whether any work moved.
type Watchdog struct {
	// MaxAge is the per-message delivery bound in cycles. Zero disables the
	// starvation check.
	MaxAge int64
	// StallWindow is the number of consecutive progress-free cycles tolerated
	// while work is in flight. Zero disables the stall check.
	StallWindow int64

	stallRun int64
}

// ErrStuck describes a watchdog violation. It is returned by Check and
// carries enough context to debug the offending run.
type ErrStuck struct {
	Cycle     int64
	Reason    string
	OldestAge int64
	InFlight  int
	// Invariant is the broken state invariant the simulator's checker
	// found when the watchdog tripped, nil when every invariant held (a
	// deadlock or livelock of consistent state).
	Invariant error
}

func (e *ErrStuck) Error() string {
	reason := e.Reason
	if e.Invariant != nil {
		reason = fmt.Sprintf("broken invariant: %v; %s", e.Invariant, reason)
	}
	return fmt.Sprintf("sim: watchdog tripped at cycle %d: %s (oldest message age %d, %d in flight)",
		e.Cycle, reason, e.OldestAge, e.InFlight)
}

// Check evaluates the oracle at the end of a cycle. progressed reports
// whether any work moved during the cycle, oldestAge is the age in cycles of
// the oldest undelivered message (zero when none is in flight) and inFlight
// is the number of undelivered messages. It returns a non-nil *ErrStuck if
// either condition fires.
func (w *Watchdog) Check(now int64, progressed bool, oldestAge int64, inFlight int) error {
	if inFlight == 0 {
		w.stallRun = 0
		return nil
	}
	if w.MaxAge > 0 && oldestAge > w.MaxAge {
		return &ErrStuck{Cycle: now, Reason: "message exceeded delivery bound (possible deadlock or livelock)",
			OldestAge: oldestAge, InFlight: inFlight}
	}
	if progressed {
		w.stallRun = 0
		return nil
	}
	w.stallRun++
	if w.StallWindow > 0 && w.stallRun >= w.StallWindow {
		return &ErrStuck{Cycle: now, Reason: "no progress with work in flight (network deadlock)",
			OldestAge: oldestAge, InFlight: inFlight}
	}
	return nil
}

// SaveState returns the watchdog's mutable state, the current stall run,
// for checkpointing.
func (w *Watchdog) SaveState() (stallRun int64) { return w.stallRun }

// RestoreState reinstates state captured by SaveState.
func (w *Watchdog) RestoreState(stallRun int64) { w.stallRun = stallRun }
