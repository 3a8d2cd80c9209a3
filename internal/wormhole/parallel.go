package wormhole

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/routing"
	"repro/internal/topology"
)

// This file is the wormhole half of the deterministic parallel cycle engine
// (see internal/engine). A serial Cycle spends most of its time walking every
// input port — thousands on a 16x16 torus — even though only a handful hold a
// header or a streaming flit on any given cycle. The parallel split moves
// that walk, plus the route computation it triggers, into a concurrent
// compute phase:
//
//	BeginCycle   serial prologue (recovery, credit drain)
//	PrepareRange concurrent port scan; computes routing candidates and
//	             appends allocation-/movement-ready ports to the worker's
//	             private intent rings
//	CommitCycle  serial: replays VC allocation over the ring contents and
//	             switch traversal over the movement set, in the same rotating
//	             order the serial engine uses
//
// Determinism: routing candidates depend only on the header and the topology
// — never on the allocation state — so precomputing them is exact. Every
// decision that reads mutable shared state (output-VC claims, link/port busy
// arbitration, credits) happens in CommitCycle, which visits ready ports in
// exactly the serial rotating order; skipped ports are precisely those the
// serial pass would have dismissed without touching shared state. The result
// is bit-identical to Cycle for any worker count.
//
// Commit-ring protocol: worker w owns one contiguous, ascending range of the
// port space per cycle (the pool's static sharding contract), and appends
// ready port indices to its rings in scan order. Ring w's contents are
// therefore ascending, and every port in ring w precedes every port in ring
// w+1 — so walking the rings in worker order yields all ready ports in
// ascending port order, and two filtered passes (ports >= start, then
// ports < start) yield the serial engine's rotating order exactly. This
// replaces the per-worker bitmap ORs and word scans of the earlier design:
// commit cost is O(ready ports), not O(port-space words × workers).

// workerScratch is one worker's private half of the commit protocol: two
// fixed-capacity intent rings (allocation-ready and movement-ready port
// indices, appended in ascending scan order) plus the pad that keeps
// neighbouring workers' ring headers on separate cache lines — the headers
// are the only memory two workers' scratch shares a line with, and they are
// rewritten on every append.
type workerScratch struct {
	alloc []int32
	move  []int32
	_     [128 - 48]byte // 2×24-byte slice headers padded to two cache lines
}

// parState is the scratch of the parallel split.
type parState struct {
	workers int
	ws      []workerScratch
	// move is the movement bitmap consumed by the commit traversal: the union
	// of the workers' movement rings plus the ports newly activated by the
	// allocation replay (which must stream this same cycle, as in the serial
	// engine, and can sit anywhere in the rotating order — a bitmap handles
	// the insertion where the sorted rings could not).
	move []uint64
	// cands holds each routing-ready port's precomputed candidates and
	// candCh the matching output-channel indices ch(Link, VC), so the commit
	// claim scan is a straight array probe (backing arrays reused across
	// cycles).
	cands  [][]routing.Candidate
	candCh [][]int32
}

// SetParallel allocates the parallel-cycle scratch for `workers` workers.
// Call once, before the next BeginCycle (the fabric calls it either at
// construction or when the auto-tuner upgrades a serial run mid-flight —
// cycles are bit-identical either way, so the switch point is invisible).
func (e *Engine) SetParallel(workers int) {
	if workers < 1 {
		workers = 1
	}
	total := e.NumPorts()
	p := &parState{
		workers: workers,
		ws:      make([]workerScratch, workers),
		move:    make([]uint64, (total+63)/64),
		cands:   make([][]routing.Candidate, total),
		candCh:  make([][]int32, total),
	}
	for w := range p.ws {
		p.ws[w].alloc = make([]int32, 0, total)
		p.ws[w].move = make([]int32, 0, total)
	}
	// The per-port candidate scratch is carved out of two flat arenas up
	// front: the serial engine shares one scratch slice across all ports, so
	// letting each port's slice grow from nil on first use would spread
	// thousands of one-off allocations across the run and break allocs/cycle
	// parity with serial. Capacity-capped subslices (three-index) keep a port
	// that somehow outgrows its view from bleeding into its neighbour's.
	capPer := e.topo.MaxOutDegree()*e.prm.NumVCs + 2 // worst case: every out port × every VC, plus escape
	candArena := make([]routing.Candidate, total*capPer)
	chArena := make([]int32, total*capPer)
	for i := 0; i < total; i++ {
		lo := i * capPer
		p.cands[i] = candArena[lo : lo : lo+capPer]
		p.candCh[i] = chArena[lo : lo : lo+capPer]
	}
	e.par = p
}

// NumPorts returns the size of the global input-port space the fabric fans
// PrepareRange out over: all link virtual channels plus one injection port
// per node.
func (e *Engine) NumPorts() int { return e.numLinkInputs() + len(e.inj) }

// BeginCycle runs the serial prologue of a parallel cycle: everything Cycle
// does before the allocation pass, plus resetting the intent rings and the
// movement bitmap.
func (e *Engine) BeginCycle(now int64) {
	e.now = now
	e.stepRecovery(now)
	e.drainCredits(now)
	p := e.par
	clear(p.move)
	for w := range p.ws {
		p.ws[w].alloc = p.ws[w].alloc[:0]
		p.ws[w].move = p.ws[w].move[:0]
	}
}

func setBit(bits []uint64, i int) { bits[i>>6] |= 1 << uint(i&63) }

// PrepareRange scans ports [lo, hi) on behalf of `worker`. It mutates only
// per-port state no other port reads (rcWait, the port's candidate scratch)
// and the worker's own rings; everything else is read-only, so ranges run
// concurrently. With activity tracking the range walk narrows to the active
// set — membership only changes in the serial prologue and commit, so the
// bitmap is read-only during the fan-out.
//
// Ring ordering contract: the fabric's pool hands each worker one contiguous
// range per cycle, ranges ascending with the worker index, and this scan
// appends in ascending port order — CommitCycle's replay depends on both.
func (e *Engine) PrepareRange(worker, lo, hi int) {
	if lo >= hi {
		return
	}
	if !e.trackActivity {
		for port := lo; port < hi; port++ {
			e.preparePort(worker, port)
		}
		return
	}
	firstW, lastW := lo>>6, (hi-1)>>6
	for w := firstW; w <= lastW; w++ {
		word := e.active[w]
		if w == firstW {
			word &= ^uint64(0) << uint(lo&63)
		}
		if w == lastW && hi&63 != 0 {
			word &= 1<<uint(hi&63) - 1
		}
		for word != 0 {
			e.preparePort(worker, w<<6+mathbits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// pushAlloc records a routing-ready port's candidates (with their
// precomputed output-channel indices) and queues it for the allocation
// replay. An empty candidate set (all routes faulted away) is not queued —
// exactly the ports the serial allocate would dismiss without side effects.
func (p *parState) pushAlloc(worker, port int, c []routing.Candidate) {
	p.cands[port] = c
	if len(c) == 0 {
		return
	}
	p.ws[worker].alloc = append(p.ws[worker].alloc, int32(port))
}

// preparePort runs the compute phase for one port.
func (e *Engine) preparePort(worker, port int) {
	p := e.par
	nLink := e.numLinkInputs()
	if port < nLink {
		v := &e.in[port]
		switch v.phase {
		case vcRouting:
			head, ok := v.buf.Front()
			if !ok {
				return
			}
			if !head.Kind.IsHead() {
				panic(fmt.Sprintf("wormhole: routing phase with non-head flit %v at front", head.Kind))
			}
			if v.rcWait > 0 {
				v.rcWait--
				return
			}
			link := topology.LinkID(port / e.prm.NumVCs)
			here := topology.Node(e.to[link])
			if here < 0 {
				panic("wormhole: flit on non-existent link")
			}
			if int(here) == head.Dst {
				// Local delivery: no candidates to claim.
				p.cands[port] = p.cands[port][:0]
				p.ws[worker].alloc = append(p.ws[worker].alloc, int32(port))
				return
			}
			c := e.fn.Candidates(here, topology.Node(head.Dst), link, port%e.prm.NumVCs, p.cands[port][:0])
			e.fillCandCh(port, c)
			p.pushAlloc(worker, port, c)
		case vcActive:
			if !v.buf.Empty() {
				p.ws[worker].move = append(p.ws[worker].move, int32(port))
			}
		}
		return
	}
	n := topology.Node(port - nLink)
	ip := &e.inj[n]
	if ip.qlen() == 0 {
		return
	}
	switch ip.phase {
	case vcRouting:
		if ip.rcWait > 0 {
			ip.rcWait--
			return
		}
		m := e.slots[ip.front()].msg
		if m.Dst == int(n) {
			p.cands[port] = p.cands[port][:0]
			p.ws[worker].alloc = append(p.ws[worker].alloc, int32(port))
			return
		}
		c := e.fn.Candidates(n, topology.Node(m.Dst), topology.Invalid, 0, p.cands[port][:0])
		e.fillCandCh(port, c)
		p.pushAlloc(worker, port, c)
	case vcActive:
		p.ws[worker].move = append(p.ws[worker].move, int32(port))
	}
}

// fillCandCh precomputes ch(Link, VC) for each candidate so the serial
// commit's claim scan never recomputes the channel index under the lock-step
// replay. Pure arithmetic on the candidate list — safe concurrently.
func (e *Engine) fillCandCh(port int, c []routing.Candidate) {
	idxs := e.par.candCh[port][:0]
	for _, cand := range c {
		idxs = append(idxs, int32(e.ch(cand.Link, cand.VC)))
	}
	e.par.candCh[port] = idxs
}

// commitAlloc finishes VC allocation for one ready port: the claim scan the
// serial allocate pass would have run, minus the route computation (already
// done). Newly activated ports join the movement bitmap so the traversal
// pass picks them up this same cycle, as in the serial engine.
func (e *Engine) commitAlloc(port int) {
	p := e.par
	if port < e.numLinkInputs() {
		v := &e.in[port]
		head, _ := v.buf.Front()
		link := topology.LinkID(port / e.prm.NumVCs)
		if int(e.to[link]) == head.Dst {
			v.phase = vcActive
			v.outLink = topology.Invalid
			v.curSlot = v.popHeadSlot()
			setBit(p.move, port)
			return
		}
		for i, idx := range p.candCh[port] {
			if e.outOwner[idx] == -1 {
				c := p.cands[port][i]
				e.outOwner[idx] = int32(port)
				v.phase = vcActive
				v.outLink = c.Link
				v.outVC = c.VC
				v.curSlot = v.popHeadSlot()
				setBit(p.move, port)
				return
			}
		}
		return
	}
	n := topology.Node(port - e.numLinkInputs())
	ip := &e.inj[n]
	m := e.slots[ip.front()].msg
	if m.Dst == int(n) {
		ip.phase = vcActive
		ip.outLink = topology.Invalid
		setBit(p.move, port)
		return
	}
	for i, idx := range p.candCh[port] {
		if e.outOwner[idx] == -1 {
			c := p.cands[port][i]
			e.outOwner[idx] = e.injInput(n)
			ip.phase = vcActive
			ip.outLink = c.Link
			ip.outVC = c.VC
			setBit(p.move, port)
			return
		}
	}
}

// CommitCycle is the serial remainder of a parallel cycle: VC allocation and
// switch traversal over the ready ports in rotating order, then the arrival
// commit and priority rotation — effect-for-effect what Cycle does after its
// prologue.
//
// The allocation replay consumes the intent rings in one pass per rotation
// half: ring contents concatenated in worker order are globally ascending
// (see the file comment), so visiting every ring port >= start and then
// every ring port < start is exactly the serial rotating order.
func (e *Engine) CommitCycle(now int64) {
	p := e.par
	total := e.NumPorts()
	start := int32(e.rr % total)
	for w := range p.ws {
		for _, port := range p.ws[w].alloc {
			if port >= start {
				e.commitAlloc(int(port))
			}
		}
	}
	for w := range p.ws {
		for _, port := range p.ws[w].alloc {
			if port < start {
				e.commitAlloc(int(port))
			}
		}
	}

	// Movement set = streaming ports found at prepare ∪ ports the replay
	// just activated (already in p.move via commitAlloc).
	for w := range p.ws {
		for _, port := range p.ws[w].move {
			setBit(p.move, int(port))
		}
	}

	e.clearBusy()
	e.arrivalsCh = e.arrivalsCh[:0]
	e.arrivalsFlit = e.arrivalsFlit[:0]
	e.arrivalsSlot = e.arrivalsSlot[:0]
	// Rotated word scan over the movement bitmap. Traversal can deactivate
	// only the port being visited (see switchAndTraverse) and p.move is not
	// mutated during the scan, so the copied-word iteration is exact.
	istart := int(start)
	from, to := istart, total
	for seg := 0; seg < 2; seg++ {
		if from < to {
			firstW, lastW := from>>6, (to-1)>>6
			for w := firstW; w <= lastW; w++ {
				word := p.move[w]
				if w == firstW {
					word &= ^uint64(0) << uint(from&63)
				}
				if w == lastW && to&63 != 0 {
					word &= 1<<uint(to&63) - 1
				}
				for word != 0 {
					e.traversePort(w<<6+mathbits.TrailingZeros64(word), now)
					word &= word - 1
				}
			}
		}
		from, to = 0, istart
	}

	e.commitArrivals()
	e.rr++
}

// forEachSet visits every set bit of bits in the rotated order
// start, start+1, ..., n-1, 0, 1, ..., start-1 — the serial engine's
// rotating arbitration order with the unset ports skipped.
func forEachSet(bits []uint64, n, start int, fn func(port int)) {
	scanSet(bits, start, n, fn)
	scanSet(bits, 0, start, fn)
}

// scanSet visits the set bits with indices in [from, to) in ascending order.
func scanSet(bits []uint64, from, to int, fn func(port int)) {
	if from >= to {
		return
	}
	firstW := from >> 6
	lastW := (to - 1) >> 6
	for w := firstW; w <= lastW; w++ {
		word := bits[w]
		if w == firstW {
			word &= ^uint64(0) << uint(from&63)
		}
		if w == lastW && to&63 != 0 {
			word &= 1<<uint(to&63) - 1
		}
		for word != 0 {
			fn(w<<6 + mathbits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}
