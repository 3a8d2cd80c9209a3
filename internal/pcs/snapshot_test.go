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
// the decode error.
func decode(t *testing.T, src *Engine, b []byte) error {
	t.Helper()
	dst := newEngine(t, src.topo, src.prm, &fakeHost{})
	dec, err := snapshot.Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.State(dec); err != nil {
		return err
	}
	return dec.Close()
}

// TestRestoreRefusesInconsistentPath: a probe's path hops are written as
// full channels, but the engine keeps only their links (the switch is the
// probe's own) and rebuilds the search frames from the chain of links. A
// hop on another switch, or one that does not leave the node the previous
// hop ends at, must be refused rather than rebuilt into a wrong search.
func TestRestoreRefusesInconsistentPath(t *testing.T) {
	e, p := searchingEngine(t)
	if err := decode(t, e, encode(t, e)); err != nil {
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
		err := decode(t, e, b)
		if err == nil || !strings.Contains(err.Error(), "path hop on switch 0") {
			t.Fatalf("err = %v, want a path hop on the wrong switch", err)
		}
	})

	t.Run("hop not leaving the previous sink", func(t *testing.T) {
		e, p := searchingEngine(t)
		// Replace hop 1 with another output of the source node.
		first := p.path[0].link
		p.path[1].link = first ^ 1
		err := decode(t, e, encode(t, e))
		if err == nil || !strings.Contains(err.Error(), "path hop 1 leaves node 0") {
			t.Fatalf("err = %v, want a broken path chain", err)
		}
	})

	t.Run("probe off its path", func(t *testing.T) {
		e, p := searchingEngine(t)
		p.at = p.src
		err := decode(t, e, encode(t, e))
		if err == nil || !strings.Contains(err.Error(), "its path ends at") {
			t.Fatalf("err = %v, want a probe away from its path's end", err)
		}
	})
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
