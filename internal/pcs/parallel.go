package pcs

// This file is the PCS half of the deterministic parallel cycle engine (see
// internal/engine). The probe protocol is the simulator's hottest code, and
// almost all of its per-cycle work — enumerating a node's outputs, filtering
// them against the probe's history and misroute budget, scanning channel
// status — reads shared state without writing it. The split here runs that
// work concurrently for every in-flight probe against the cycle-start
// snapshot (PrepareRange), records which channels each decision depended on,
// and then commits serially in launch order (CommitCycle), exactly like the
// serial engine.
//
// Commit-time validation makes the optimism safe: every mutation of a
// channel's status or owner stamps touched[k] with the current cycle, and a
// precomputed decision is applied only if none of its read channels were
// stamped earlier in the same commit (by a teardown, an acknowledgment, or
// an earlier probe). On a conflict — or for any decision with side effects
// beyond channel state (victim selection through the host, completion
// callbacks) — the probe re-runs the ordinary serial step, which is the
// ground truth. Either way the outcome is bit-identical to the serial
// engine: the fast path is a verbatim replay of what the serial step would
// do when its inputs are unchanged, and the validation itself runs serially
// in canonical order, so results do not depend on the worker count.

// prepKind classifies the decision precomputed for a probe.
type prepKind uint8

const (
	// prepNone: no decision prepared this cycle (serial mode, or the probe
	// was launched after the compute phase).
	prepNone prepKind = iota
	// prepSlow: the step has effects the fast path cannot replay (arrival at
	// the destination, victim selection via the host, failure callbacks);
	// always run the serial step.
	prepSlow
	// prepTake: reserve opts[take] and advance.
	prepTake
	// prepStay: a waiting Force probe keeps waiting; no state changes.
	prepStay
	// prepBacktrack: undo the last hop (advancing phase, non-empty path).
	prepBacktrack
)

// prepState is the per-probe result of the parallel compute phase.
type prepState struct {
	cycle int64
	kind  prepKind
	take  int     // index into probe.opts when kind == prepTake
	reads []int32 // channel keys the decision depends on (reused)
}

// markTouched records that channel k's status or owner changed in the
// current prep generation. It is a no-op in serial mode (touched is nil).
func (e *Engine) markTouched(k int32) {
	if e.touched != nil {
		e.touched[k] = e.prepGen
	}
}

// SetParallel enables commit validation. Call once, before the first cycle.
func (e *Engine) SetParallel() {
	e.touched = make([]int64, len(e.status))
	for i := range e.touched {
		e.touched[i] = -1
	}
}

// PrepareCount snapshots the probe list for this cycle's compute phase and
// returns its length. The fabric fans PrepareRange out over [0, count).
func (e *Engine) PrepareCount() int {
	e.prepGen++
	e.prepList = e.probes
	return len(e.prepList)
}

// PrepareRange runs the compute phase for probes [lo, hi) of the snapshot. It
// reads shared engine state without writing it; all writes go to the probes'
// own scratch, so disjoint ranges may run concurrently.
func (e *Engine) PrepareRange(now int64, lo, hi int) {
	for _, p := range e.prepList[lo:hi] {
		e.prepareProbe(now, p)
	}
}

// prepareProbe evaluates one probe's next step against the cycle-start state
// and records the decision plus the channel keys it read.
func (e *Engine) prepareProbe(now int64, p *probe) {
	pr := &p.prep
	pr.cycle = now
	pr.kind = prepSlow
	pr.take = 0
	pr.reads = pr.reads[:0]
	if p.at == p.dst {
		return // circuit registration + ack launch: serial
	}
	opts := e.options(p)
	hist := p.histAt(p.at)

	if p.phase == probeAdvancing {
		// Mirror probeAdvance's first-choice scan: the first eligible Free
		// channel wins. The decision depends on every status read up to and
		// including the winner.
		for i, o := range opts {
			if hist&o.bit != 0 {
				continue
			}
			if !o.profitable && p.misroutes >= p.maxMis {
				continue
			}
			k := o.key
			pr.reads = append(pr.reads, k)
			if e.status[k] == Free {
				pr.kind = prepTake
				pr.take = i
				return
			}
		}
		if p.force {
			// Blocked Force probe: if any requested channel is established,
			// the serial step selects a victim through the host — slow. With
			// none established (or nothing requestable) it backtracks.
			for _, o := range opts {
				if hist&o.bit != 0 {
					continue
				}
				if !o.profitable && p.misroutes >= p.maxMis {
					continue
				}
				if e.status[o.key] == Established {
					return // prepSlow
				}
			}
		}
		if len(p.path) == 0 {
			return // failure at the source fires the done callback: slow
		}
		pr.kind = prepBacktrack
		return
	}

	// probeWaiting: grab the first requested channel that came free
	// (requested = eligible and not faulty; a Free channel is never faulty,
	// so the first eligible Free channel is the serial pick too).
	for i, o := range opts {
		if hist&o.bit != 0 {
			continue
		}
		if !o.profitable && p.misroutes >= p.maxMis {
			continue
		}
		k := o.key
		pr.reads = append(pr.reads, k)
		if e.status[k] == Free {
			pr.kind = prepTake
			pr.take = i
			return
		}
	}
	// Still blocked: the probe keeps waiting only if its awaited channel is
	// untouched and some requested channel is still established; every other
	// outcome re-selects a victim or backtracks with a phase flip — slow.
	wk := e.key(p.waitingFor)
	pr.reads = append(pr.reads, wk)
	if p.requestedRelease && e.status[wk] == Established && e.owner[wk] == p.waitingOwner {
		for _, o := range opts {
			if hist&o.bit != 0 {
				continue
			}
			if !o.profitable && p.misroutes >= p.maxMis {
				continue
			}
			if e.status[o.key] == Established {
				pr.kind = prepStay
				return
			}
		}
	}
}

// prepFresh reports whether p carries a decision prepared for the current
// cycle.
func (e *Engine) prepFresh(p *probe) bool {
	return p.prep.kind != prepNone && p.prep.cycle == e.now
}

// tryFastCommit applies a precomputed decision if it survives validation.
// handled reports whether the step is done; keep mirrors stepProbe's return.
func (e *Engine) tryFastCommit(p *probe) (handled, keep bool) {
	if !e.prepFresh(p) || p.prep.kind == prepSlow {
		return false, false
	}
	for _, k := range p.prep.reads {
		if e.touched[k] == e.prepGen {
			return false, false // conflict: re-run the serial step
		}
	}
	switch p.prep.kind {
	case prepTake:
		e.takeChannel(p, p.opts[p.prep.take])
		return true, true
	case prepStay:
		return true, true
	case prepBacktrack:
		return true, e.probeBacktrack(p)
	}
	return false, false
}

// CommitCycle is the serial commit half of a parallel cycle: identical to
// Cycle, but stepProbes consumes the decisions prepared by PrepareRange.
func (e *Engine) CommitCycle(now int64) {
	e.prepList = nil
	e.Cycle(now)
}
