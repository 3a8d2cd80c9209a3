package wave

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/trace"
)

// Program builds a CARP directive program — the circuit set-up, send and
// tear-down instructions the paper expects "the programmer and/or the
// compiler" to generate. Build it with the At/Open/Send/Close methods, then
// run it with Simulator.RunProgram or serialize it with WriteTo.
//
//	var p wave.Program
//	p.At(0).Open(0, 5)
//	p.At(100).Send(0, 5, 128).Send(0, 5, 128)
//	p.At(100).SendWormhole(0, 5, 4) // too short to be worth the circuit
//	p.At(500).Close(0, 5)
//	err := sim.RunProgram(p.Reader(), 1_000_000)
type Program struct {
	prog trace.Program
	err  error
}

// Cursor adds directives at a fixed cycle.
type Cursor struct {
	p     *Program
	cycle int64
}

// At positions a cursor at the given cycle. Directives may be added at any
// cycle order; the program is sorted before use.
func (p *Program) At(cycle int64) Cursor {
	if cycle < 0 {
		p.err = fmt.Errorf("wave: negative program cycle %d", cycle)
	}
	return Cursor{p: p, cycle: cycle}
}

// Open adds a circuit set-up instruction.
func (c Cursor) Open(src, dst int) Cursor {
	c.p.prog = append(c.p.prog, trace.Directive{Cycle: c.cycle, Op: trace.Open, Src: src, Dst: dst})
	return c
}

// Send adds a message transmission over the circuit.
func (c Cursor) Send(src, dst, flits int) Cursor {
	c.p.prog = append(c.p.prog, trace.Directive{Cycle: c.cycle, Op: trace.Send, Src: src, Dst: dst, Flits: flits})
	return c
}

// SendWormhole adds a message the compiler routes around the circuit.
func (c Cursor) SendWormhole(src, dst, flits int) Cursor {
	c.p.prog = append(c.p.prog, trace.Directive{Cycle: c.cycle, Op: trace.Send, Src: src, Dst: dst, Flits: flits, Wormhole: true})
	return c
}

// Close adds a circuit tear-down instruction.
func (c Cursor) Close(src, dst int) Cursor {
	c.p.prog = append(c.p.prog, trace.Directive{Cycle: c.cycle, Op: trace.Close, Src: src, Dst: dst})
	return c
}

// Len returns the directive count.
func (p *Program) Len() int { return len(p.prog) }

// Err returns the first building error, if any.
func (p *Program) Err() error { return p.err }

// WriteTo serializes the program in the trace text format.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	if p.err != nil {
		return 0, p.err
	}
	p.prog.Sort()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, p.prog); err != nil {
		return 0, err
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// Reader returns the serialized program, ready for Simulator.RunProgram.
// A program with a build error reads as that error, which RunProgram
// returns.
func (p *Program) Reader() io.Reader {
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		return errReader{err}
	}
	return bytes.NewReader(buf.Bytes())
}

// errReader is a reader whose every Read fails with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// fromTrace wraps a generated trace program.
func fromTrace(tp trace.Program, err error) (*Program, error) {
	if err != nil {
		return nil, err
	}
	return &Program{prog: tp}, nil
}

// StencilProgram generates the CARP directives for an iterative
// nearest-neighbour halo exchange on this simulator's topology: open a
// circuit to every neighbour, stream `iters` rounds of `haloFlits`-flit
// messages `gap` cycles apart, close everything afterwards.
func (s *Simulator) StencilProgram(iters, haloFlits int, gap int64) (*Program, error) {
	return fromTrace(trace.Stencil(s.Nodes(), s.Neighbors, iters, haloFlits, gap))
}

// RingProgram generates a ring-shift program: node i streams `rounds`
// messages of `flits` to host i+1 mod Hosts() over a held-open circuit.
func (s *Simulator) RingProgram(rounds, flits int, gap int64) (*Program, error) {
	return fromTrace(trace.Ring(s.Hosts(), rounds, flits, gap))
}

// AllToAllProgram generates a staged personalized all-to-all (XOR pairing),
// opening each circuit just before its exchange and closing it right after —
// the compiler time-multiplexing scarce channels.
func (s *Simulator) AllToAllProgram(flits int, stageGap int64) (*Program, error) {
	return fromTrace(trace.AllToAll(s.Hosts(), flits, stageGap))
}
