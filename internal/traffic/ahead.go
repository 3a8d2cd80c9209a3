package traffic

import (
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Open-loop traffic reads nothing from the network: which hosts fire in a
// cycle is a pure function of the generator's state. RunAhead therefore
// computes the firing hosts ahead of the cycle loop, on a producer
// goroutine that runs a private clone of the generator through Tick, and
// Ahead.Tick replays them on the generator itself: it skips the Bernoulli
// draws of the hosts that did not fire in O(1) (sim.RNG.Skip) and calls
// emit for those that did, exactly as Tick would. The generator is thus
// exact at every cycle boundary, and its snapshot state never differs from
// a serial run's.

const (
	// aheadDraws is the number of per-host Bernoulli tests a batch covers:
	// a batch spans ceil(aheadDraws / hosts) cycles, so it costs the
	// producer about the same time on every fabric size.
	aheadDraws = 1 << 16
	// aheadBatches is the number of batch buffers in circulation, and so
	// how many batches the producer may run ahead of the replay.
	aheadBatches = 4
)

// batch is the producer's record of consecutive cycles.
type batch struct {
	hosts []int32  // the firing hosts of every cycle, in cycle then host order
	offs  []int32  // offs[i] is the end of cycle i's entries in hosts
	ends  []uint64 // ends[i] is the generator's RNG state after cycle i
}

// record is Tick's send on the producer's clone: it notes the firing host.
func (b *batch) record(src, _ topology.Node, _ int) { b.hosts = append(b.hosts, int32(src)) }

// fill runs cycles cycles of g.Tick into b.
func (b *batch) fill(g *Generator, cycles int64) {
	b.hosts, b.offs, b.ends = b.hosts[:0], b.offs[:0], b.ends[:0]
	record := b.record
	for ; cycles > 0; cycles-- {
		g.Tick(record)
		b.offs = append(b.offs, int32(len(b.hosts)))
		b.ends = append(b.ends, g.rng.State())
	}
}

// Ahead is a run-ahead source for one injection window: a producer
// goroutine fills batches from a clone of the generator, and Tick replays
// them on the generator in place of Generator.Tick. The two share only the
// batch channels. Stop must be called once the window is done with, and
// the generator must not be ticked or decoded into while the source runs.
type Ahead struct {
	gen  *Generator
	scan uint64 // draws one host's Bernoulli test takes: 1 if 0 < rate < 1, else 0
	at   int64  // the cycle the next Tick replays (for the divergence panic)
	left int64  // cycles still to replay

	full, free chan *batch
	stop, done chan struct{}

	cur *batch
	i   int // the next cycle of cur
}

// RunAhead starts a producer that draws the next `cycles` cycles of g's
// traffic, and returns the source that replays them, the first as cycle
// `first`. The producer never draws past the window.
func (g *Generator) RunAhead(first, cycles int64) *Ahead {
	// Both channels hold every batch in circulation, so no send on them
	// blocks; only the receives wait.
	a := &Ahead{
		gen:  g,
		at:   first,
		left: cycles,
		full: make(chan *batch, aheadBatches),
		free: make(chan *batch, aheadBatches),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if rate := g.MsgRate(); rate > 0 && rate < 1 {
		a.scan = 1
	}
	per := min(int64((aheadDraws+g.nodes-1)/max(g.nodes, 1)), max(cycles, 1))
	for range aheadBatches {
		a.free <- &batch{offs: make([]int32, 0, per), ends: make([]uint64, 0, per)}
	}
	go a.produce(g.clone(), per, cycles)
	return a
}

// produce fills batches of per cycles until the window is drawn or Stop is
// called. Every batch buffer is either in free, in full, or held by one
// side, so the send on full never blocks.
func (a *Ahead) produce(g *Generator, per, cycles int64) {
	defer close(a.done)
	for cycles > 0 {
		var b *batch
		select {
		case <-a.stop:
			return
		case b = <-a.free:
		}
		n := min(per, cycles)
		b.fill(g, n)
		cycles -= n
		a.full <- b
	}
}

// Tick emits this cycle's new messages by calling send for each: the
// messages, and the generator's state after them, are those Generator.Tick
// would produce. It panics if the replay ends the cycle on a different RNG
// state than the producer did, or if the window is exhausted.
func (a *Ahead) Tick(send func(src, dst topology.Node, length int)) {
	if a.left == 0 {
		panic(fmt.Sprintf("traffic: run-ahead Tick at cycle %d is past the window", a.at))
	}
	if a.cur == nil || a.i == len(a.cur.ends) {
		if a.cur != nil {
			a.free <- a.cur
		}
		a.cur, a.i = <-a.full, 0
	}
	if !a.gen.replay(a.cur, a.i, a.scan, send) {
		panic(fmt.Sprintf("traffic: run-ahead replay diverged from the producer at cycle %d", a.at))
	}
	a.i++
	a.at++
	a.left--
}

// Stop stops the producer and waits for it to return. Call it exactly once.
func (a *Ahead) Stop() {
	close(a.stop)
	<-a.done
}

// replay performs cycle i of b on g: for each firing host it skips the
// draws of the hosts before it (scan draws each) and of its own test, then
// emits; then it skips the rest of the scan. It reports whether g's RNG
// state then equals the producer's.
func (g *Generator) replay(b *batch, i int, scan uint64, send func(src, dst topology.Node, length int)) bool {
	lo := int32(0)
	if i > 0 {
		lo = b.offs[i-1]
	}
	next := int32(0) // the next host whose test is not yet drawn
	for _, h := range b.hosts[lo:b.offs[i]] {
		g.rng.Skip(uint64(h-next+1) * scan)
		g.emit(topology.Node(h), send)
		next = h + 1
	}
	g.rng.Skip(uint64(int32(g.nodes)-next) * scan)
	return g.rng.State() == b.ends[i]
}

// clone returns a generator that draws exactly what g draws from here on
// and shares no mutable state with it.
func (g *Generator) clone() *Generator {
	c := *g
	c.rng = sim.NewRNG(g.rng.State())
	c.Pattern = clonePattern(g.Pattern)
	return &c
}

// clonePattern copies the mutable state of a pattern. Only Locality has
// any; the other patterns, Near's neighbourhoods included, are read-only
// once built. A working set is replaced, never written in place, once
// drawn (redraw builds a new slice), so copying the slice headers suffices.
func clonePattern(p Pattern) Pattern {
	l, ok := p.(*Locality)
	if !ok {
		return p
	}
	c := *l
	c.Base = clonePattern(l.Base)
	c.sets = slices.Clone(l.sets)
	c.count = slices.Clone(l.count)
	return &c
}
