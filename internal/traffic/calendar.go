package traffic

import (
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// A host starts a message in a tick with probability q = cut/2^53, cut =
// sim.BoolCut(rate): exactly the probability that rng.Bool(rate) holds. The
// gap to its next start is then geometric, P(gap > k) = (1-q)^k, and
// gapSampler draws it with integers only, so the stream does not depend on
// the architecture.

const (
	gapTableMax  = 1 << 12 // a gap table's length cap
	guideBits    = 10      // the draw's top bits that index a guide
	wheelMaxBits = 14      // the timing wheel's size cap, log2
)

// gapSampler draws a gap by inversion: for a uniform 53-bit draw u, the gap
// is the least k with u >= t[k-1] = ⌊(1-q)^k·2^53⌋. The table ends once
// P(gap > k) < 1/64 (about 4.2 mean gaps) or at gapTableMax entries; a
// draw below its last entry means the gap outlasts the table.
type gapSampler struct {
	t []uint64
	// guide[j] is the least i with t[i] < (j+1)·2^(53-guideBits), or
	// len(t): a draw whose top bits read j ends at index guide[j] or later.
	guide [1 << guideBits]uint16
	// tail, set when a capped table ends with P(gap > len(t)) >= 1/2,
	// draws how many whole tables a gap spans; redrawing would take about
	// 1/(1-P) draws, without bound as q falls.
	tail *gapSampler
}

// newGapSampler builds the tables for 0 < cut <= 2^53. The thresholds come
// from (1-q)^k held as a 128-bit binary fraction, truncated once per
// factor, so each is the exact floor unless (1-q)^k·2^53 lies within
// k·2^-75 above an integer.
func newGapSampler(cut uint64) *gapSampler {
	r := 1<<53 - cut // (1-q)·2^53
	s := &gapSampler{}
	hi, lo := r<<11, uint64(0) // (1-q)^k = (hi·2^64 + lo)/2^128
	for {
		s.t = append(s.t, hi>>11)
		if hi>>11 < 1<<53>>6 || len(s.t) == gapTableMax {
			break
		}
		// (hi, lo) ·= r/2^53: the 192-bit product, shifted right by 53.
		h1, h0 := bits.Mul64(hi, r)
		l1, l0 := bits.Mul64(lo, r)
		mid, carry := bits.Add64(h0, l1, 0)
		hi, lo = (h1+carry)<<11|mid>>53, mid<<11|l0>>53
	}
	i := 0
	for j := len(s.guide) - 1; j >= 0; j-- {
		for i < len(s.t) && s.t[i] >= uint64(j+1)<<(53-guideBits) {
			i++
		}
		s.guide[j] = uint16(i)
	}
	if last := s.t[len(s.t)-1]; last >= 1<<52 {
		s.tail = newGapSampler(1<<53 - last)
	}
	return s
}

// draw returns one gap.
func (s *gapSampler) draw(rng *sim.RNG) int64 {
	k, last := int64(len(s.t)), s.t[len(s.t)-1]
	if last == 0 {
		return 1 // q = 1: every tick, with no draw
	}
	var gap int64
	u := rng.Uint64() >> 11
	for ; u < last && s.tail == nil; u = rng.Uint64() >> 11 {
		gap += k // the gap outlasts the table; (memoryless) the rest is a fresh gap
	}
	if u < last {
		// The gap spans tail.draw() tables and ends in the last one, at a
		// draw uniform over [last, 2^53).
		gap += k * s.tail.draw(rng)
		off, _ := bits.Mul64(rng.Uint64(), 1<<53-last)
		u = last + off
	}
	i := int(s.guide[u>>(53-guideBits)])
	for u < s.t[i] {
		i++
	}
	return gap + int64(i) + 1
}

// calendar files each host under the tick of its next start, counted in
// Ticks of its generator, in a timing wheel: slot t&mask lists the hosts
// due at ticks congruent to t. A slot is read whole and its due hosts
// sorted, so the order of a list is never observed.
type calendar struct {
	now  int64   // the tick take reads next
	mask int64   // the wheel's slot mask
	due  []int64 // per host: the tick of its next start; nil until drawn
	next []int32 // per host: 1 + the next host in its slot's list, 0 at the end
	head []int32 // per slot: 1 + the first host of its list, 0 if empty
	fire []int32 // take's result
}

// init allocates an empty calendar for hosts hosts at tick 0.
func (c *calendar) init(hosts int) {
	c.now = 0
	c.due = make([]int64, hosts)
	c.next = make([]int32, hosts)
	c.head = make([]int32, c.mask+1)
	c.fire = make([]int32, 0, hosts)
}

// put files host h under tick at.
func (c *calendar) put(h int32, at int64) {
	s := at & c.mask
	c.due[h], c.next[h], c.head[s] = at, c.head[s], h+1
}

// take unlinks the hosts due at the current tick, advances the tick and
// returns them in ascending order. The result is valid until the next take.
func (c *calendar) take() []int32 {
	c.fire = c.fire[:0]
	link := &c.head[c.now&c.mask]
	for h := *link - 1; h >= 0; h = c.next[h] - 1 {
		if c.due[h] == c.now {
			*link = c.next[h]
			c.fire = append(c.fire, h)
		} else {
			link = &c.next[h]
		}
	}
	c.now++
	if len(c.fire) > 1 {
		slices.Sort(c.fire)
	}
	return c.fire
}
