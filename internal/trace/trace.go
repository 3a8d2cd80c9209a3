// Package trace defines the CARP directive format: the sequence of circuit
// set-up, send and tear-down instructions that the paper expects "the
// programmer and/or the compiler" to generate (section 3.2). Since the
// compiler support is explicitly left as future work by the paper, this
// format is the substitution: workload generators with perfect knowledge of
// their communication pattern emit the directives a compiler would.
//
// The text format is line-oriented:
//
//	# comment
//	@<cycle> open <src> <dst>
//	@<cycle> send <src> <dst> <flits> [wormhole]
//	@<cycle> close <src> <dst>
//
// Directives must be sorted by cycle (Parse verifies). The optional trailing
// "wormhole" on send marks messages the compiler routes around the circuit
// (short messages, per section 3.2).
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Op is a directive opcode.
type Op uint8

const (
	// Open requests circuit establishment.
	Open Op = iota
	// Send transmits a message.
	Send
	// Close tears the circuit down.
	Close
)

func (o Op) String() string {
	switch o {
	case Open:
		return "open"
	case Send:
		return "send"
	case Close:
		return "close"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Directive is one timed CARP instruction.
type Directive struct {
	Cycle int64
	Op    Op
	Src   int
	Dst   int
	// Flits is the message length (Send only).
	Flits int
	// Wormhole marks a Send the compiler keeps off the circuit.
	Wormhole bool
}

// Program is an ordered directive list.
type Program []Directive

// Validate checks ordering and field sanity against a host count: every
// endpoint must be a processor-bearing node 0..hosts-1.
func (p Program) Validate(hosts int) error {
	var last int64 = -1 << 62
	for i, d := range p {
		if d.Cycle < last {
			return fmt.Errorf("trace: directive %d out of order (cycle %d after %d)", i, d.Cycle, last)
		}
		last = d.Cycle
		if d.Src < 0 || d.Src >= hosts || d.Dst < 0 || d.Dst >= hosts {
			return fmt.Errorf("trace: directive %d has node out of range (%d -> %d, %d hosts)", i, d.Src, d.Dst, hosts)
		}
		if d.Op == Send && d.Flits < 1 {
			return fmt.Errorf("trace: directive %d sends %d flits", i, d.Flits)
		}
	}
	return nil
}

// Sort orders the program by cycle (stable, preserving same-cycle order).
func (p Program) Sort() {
	sort.SliceStable(p, func(i, j int) bool { return p[i].Cycle < p[j].Cycle })
}

// Encode writes the program in text form.
func Encode(w io.Writer, p Program) error {
	bw := bufio.NewWriter(w)
	for _, d := range p {
		var err error
		switch d.Op {
		case Open:
			_, err = fmt.Fprintf(bw, "@%d open %d %d\n", d.Cycle, d.Src, d.Dst)
		case Close:
			_, err = fmt.Fprintf(bw, "@%d close %d %d\n", d.Cycle, d.Src, d.Dst)
		case Send:
			if d.Wormhole {
				_, err = fmt.Fprintf(bw, "@%d send %d %d %d wormhole\n", d.Cycle, d.Src, d.Dst, d.Flits)
			} else {
				_, err = fmt.Fprintf(bw, "@%d send %d %d %d\n", d.Cycle, d.Src, d.Dst, d.Flits)
			}
		default:
			err = fmt.Errorf("trace: cannot encode op %v", d.Op)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads the text form. Blank lines and #-comments are ignored.
func Parse(r io.Reader) (Program, error) {
	var p Program
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "@") {
			return nil, fmt.Errorf("trace: line %d: malformed directive %q", lineNo, line)
		}
		cycle, err := strconv.ParseInt(fields[0][1:], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad cycle: %v", lineNo, err)
		}
		src, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad src: %v", lineNo, err)
		}
		dst, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad dst: %v", lineNo, err)
		}
		d := Directive{Cycle: cycle, Src: src, Dst: dst}
		switch fields[1] {
		case "open":
			d.Op = Open
			if len(fields) != 4 {
				return nil, fmt.Errorf("trace: line %d: open takes 2 operands", lineNo)
			}
		case "close":
			d.Op = Close
			if len(fields) != 4 {
				return nil, fmt.Errorf("trace: line %d: close takes 2 operands", lineNo)
			}
		case "send":
			d.Op = Send
			if len(fields) < 5 || len(fields) > 6 {
				return nil, fmt.Errorf("trace: line %d: send takes 3 operands [+ wormhole]", lineNo)
			}
			d.Flits, err = strconv.Atoi(fields[4])
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad flit count: %v", lineNo, err)
			}
			if len(fields) == 6 {
				if fields[5] != "wormhole" {
					return nil, fmt.Errorf("trace: line %d: unknown send flag %q", lineNo, fields[5])
				}
				d.Wormhole = true
			}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown op %q", lineNo, fields[1])
		}
		p = append(p, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return p, nil
}

// Player feeds a program into protocol calls cycle by cycle.
type Player struct {
	prog Program
	next int
}

// NewPlayer wraps a validated program.
func NewPlayer(p Program) *Player { return &Player{prog: p} }

// Done reports whether every directive has fired.
func (pl *Player) Done() bool { return pl.next >= len(pl.prog) }

// Remaining returns the count of unfired directives.
func (pl *Player) Remaining() int { return len(pl.prog) - pl.next }

// Tick fires every directive scheduled at or before `now`, in order.
func (pl *Player) Tick(now int64, fire func(Directive)) {
	for pl.next < len(pl.prog) && pl.prog[pl.next].Cycle <= now {
		fire(pl.prog[pl.next])
		pl.next++
	}
}
