package pcs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/snapshot"
	"repro/internal/topology"
)

// searchingEngine returns an engine on an 8x8 torus with one tagged probe
// two hops into its search on switch 1.
func searchingEngine(t *testing.T) (*Engine, *probe) {
	t.Helper()
	e := newEngine(t, topology.MustCube([]int{8, 8}, true), Params{NumSwitches: 2, MaxMisroutes: 2}, &fakeHost{})
	e.LaunchProbeTagged(0, 27, 1, false, 0)
	e.Cycle(0)
	e.Cycle(1)
	p := e.probes[0]
	if len(p.path) != 2 {
		t.Fatalf("probe at depth %d, want 2", len(p.path))
	}
	return e, p
}

// encode returns src's state as a complete snapshot stream.
func encode(t *testing.T, src *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc, err := snapshot.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.State(enc); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode restores b into a fresh engine of src's configuration and returns
// it with the decode error.
func decode(t *testing.T, src *Engine, b []byte) (*Engine, error) {
	t.Helper()
	dst := newEngine(t, src.topo, src.prm, &fakeHost{})
	dec, err := snapshot.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.State(dec); err != nil {
		return dst, err
	}
	if err := dec.Close(); err != nil {
		return dst, err
	}
	mustCheck(t, dst)
	return dst, nil
}

// TestRestoreRefusesInconsistentPath: a probe's path hops are written as
// full channels, but the engine keeps only their links (the switch is the
// probe's own) and rebuilds the search frames from the chain of links. A
// hop on another switch, or one that does not leave the node the previous
// hop ends at, must be refused rather than rebuilt into a wrong search.
func TestRestoreRefusesInconsistentPath(t *testing.T) {
	e, p := searchingEngine(t)
	if _, err := decode(t, e, encode(t, e)); err != nil {
		t.Fatalf("clean payload refused: %v", err)
	}

	t.Run("hop on another switch", func(t *testing.T) {
		b := encode(t, e)
		// The path is (link, switch, misroute) per hop: find hop 1 and move
		// it to switch 0, then re-stamp the digest.
		var hops []byte
		for _, h := range p.path {
			hops = binary.LittleEndian.AppendUint64(hops, uint64(h.link))
			hops = binary.LittleEndian.AppendUint64(hops, uint64(p.sw))
			hops = append(hops, boolByte(h.misroute))
		}
		head := len(snapshot.Magic) + 4
		payload := b[head : len(b)-sha256.Size]
		i := bytes.Index(payload, hops)
		if i < 0 || bytes.Index(payload[i+1:], hops) >= 0 {
			t.Fatal("path bytes not found exactly once")
		}
		binary.LittleEndian.PutUint64(payload[i+17+8:], 0)
		sum := sha256.Sum256(payload)
		copy(b[len(b)-sha256.Size:], sum[:])
		_, err := decode(t, e, b)
		if err == nil || !strings.Contains(err.Error(), "path hop on switch 0") {
			t.Fatalf("err = %v, want a path hop on the wrong switch", err)
		}
	})

	t.Run("hop not leaving the previous sink", func(t *testing.T) {
		e, p := searchingEngine(t)
		// Replace hop 1 with another output of the source node.
		first := p.path[0].link
		p.path[1].link = first ^ 1
		_, err := decode(t, e, encode(t, e))
		if err == nil || !strings.Contains(err.Error(), "path hop 1 leaves node 0") {
			t.Fatalf("err = %v, want a broken path chain", err)
		}
	})

	t.Run("probe off its path", func(t *testing.T) {
		e, p := searchingEngine(t)
		p.at = p.src
		_, err := decode(t, e, encode(t, e))
		if err == nil || !strings.Contains(err.Error(), "its path ends at") {
			t.Fatalf("err = %v, want a probe away from its path's end", err)
		}
	})
}

// TestRestoreRefusesLegacyBytes: two bool bytes stay in the format although
// the engine no longer stores them — a circuit's deferred-teardown flag,
// written twice, and a teardown flit's notify flag, always true. A payload
// whose byte disagrees is refused.
func TestRestoreRefusesLegacyBytes(t *testing.T) {
	// A straight 7-hop circuit 0 -> 7 on one switch, torn down as soon as it
	// registers: the teardown waits behind the ack, then chases it.
	topo := topology.MustCube([]int{8, 2}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, &fakeHost{})
	e.LaunchProbeTagged(0, 7, 0, false, 0)
	cyc := int64(0)
	for ; e.NumCircuits() == 0; cyc++ {
		e.Cycle(cyc)
	}
	c := e.circuits[1]
	e.TeardownNotify(c.ID)

	// The circuit entry ends with its last path channel and the bools
	// releasePending, tearingDown, ackPending, teardownDeferred and the
	// legacy copy of teardownDeferred.
	last := c.Path[len(c.Path)-1]
	deferred := binary.LittleEndian.AppendUint64(nil, uint64(last.Link))
	deferred = binary.LittleEndian.AppendUint64(deferred, uint64(last.Switch))
	deferred = append(deferred, 0, 0, 1, 1, 1)
	refuseFlipped(t, e, deferred, "disagrees with its deferred teardown")

	for ; len(e.teardowns) == 0; cyc++ {
		e.Cycle(cyc)
	}
	// No acks, then one teardown: circuit, next hop and the notify byte.
	td := e.teardowns[0]
	flight := []byte{0, 0, 0, 0, 1, 0, 0, 0}
	flight = binary.LittleEndian.AppendUint64(flight, uint64(td.circ.ID))
	flight = binary.LittleEndian.AppendUint64(flight, uint64(td.next))
	refuseFlipped(t, e, append(flight, 1), "false notify byte")
}

// refuseFlipped encodes e, finds pat exactly once in the payload, clears
// its last byte, re-stamps the digest and checks that decoding fails with
// an error containing want.
func refuseFlipped(t *testing.T, e *Engine, pat []byte, want string) {
	t.Helper()
	b := encode(t, e)
	head := len(snapshot.Magic) + 4
	payload := b[head : len(b)-sha256.Size]
	i := bytes.Index(payload, pat)
	if i < 0 || bytes.Index(payload[i+1:], pat) >= 0 {
		t.Fatalf("pattern %x not found exactly once", pat)
	}
	payload[i+len(pat)-1] = 0
	sum := sha256.Sum256(payload)
	copy(b[len(b)-sha256.Size:], sum[:])
	if _, err := decode(t, e, b); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
