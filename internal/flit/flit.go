// Package flit defines the units of information that travel through the
// network: data flits for wormhole switching, and the control flits of the
// PCS routing control unit — routing probes (Figure 4 of the paper),
// acknowledgments, teardown flits and circuit-release requests.
package flit

import "fmt"

// MsgID uniquely identifies a message for its lifetime.
type MsgID int64

// Kind discriminates flit roles.
type Kind uint8

const (
	// Head is the first flit of a wormhole message; it carries routing info.
	Head Kind = iota
	// Body is a payload flit.
	Body
	// Tail is the last flit; it releases virtual channels as it advances.
	Tail
	// HeadTail is a single-flit message (head and tail at once).
	HeadTail
	// Probe is a PCS routing probe searching for a physical circuit.
	Probe
	// Ack is the acknowledgment returning along a freshly reserved circuit.
	Ack
	// Teardown releases a circuit hop by hop, travelling from the source.
	Teardown
	// Release asks a circuit's source node to release it (CLRP Force phase);
	// it travels backward along the circuit's control channels.
	Release
)

func (k Kind) String() string {
	switch k {
	case Head:
		return "head"
	case Body:
		return "body"
	case Tail:
		return "tail"
	case HeadTail:
		return "head+tail"
	case Probe:
		return "probe"
	case Ack:
		return "ack"
	case Teardown:
		return "teardown"
	case Release:
		return "release"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsControl reports whether the flit kind travels on control channels
// (handled by the PCS routing control unit) rather than through switch S0.
func (k Kind) IsControl() bool { return k >= Probe }

// IsHead reports whether the kind begins a wormhole message.
func (k Kind) IsHead() bool { return k == Head || k == HeadTail }

// IsTail reports whether the kind ends a wormhole message.
func (k Kind) IsTail() bool { return k == Tail || k == HeadTail }

// Flit is one unit of wormhole data. Head flits carry the destination; the
// rest identify their message so the simulator can track ordering (real
// hardware needs no IDs on body flits — they follow the wormhole).
type Flit struct {
	Kind Kind
	Msg  MsgID
	Src  int
	Dst  int
	Seq  int // position within the message, 0-based
}

// Message describes a unit of communication before flitization.
type Message struct {
	ID  MsgID
	Src int
	Dst int
	Len int // total flits, including head and tail
	// InjectTime is the cycle the message entered the source queue; used for
	// latency accounting.
	InjectTime int64
}

// FlitAt materialises flit i of the message on demand. The engines call it
// from their traversal loops instead of storing messages as flit slices, so a
// message in flight costs one Message struct, not Len Flit values.
func (m Message) FlitAt(i int) Flit {
	return Flit{Kind: m.KindAt(i), Msg: m.ID, Src: m.Src, Dst: m.Dst, Seq: i}
}

// KindAt returns the kind of flit i of the message.
func (m Message) KindAt(i int) Kind { return KindOf(i, m.Len) }

// KindOf returns the kind of flit i of an n-flit message.
func KindOf(i, n int) Kind {
	switch {
	case n == 1:
		return HeadTail
	case i == 0:
		return Head
	case i == n-1:
		return Tail
	}
	return Body
}

// Flits expands the message into its flit sequence.
func (m Message) Flits() []Flit {
	if m.Len <= 0 {
		return nil
	}
	if m.Len == 1 {
		return []Flit{{Kind: HeadTail, Msg: m.ID, Src: m.Src, Dst: m.Dst, Seq: 0}}
	}
	fs := make([]Flit, m.Len)
	for i := range fs {
		k := Body
		switch i {
		case 0:
			k = Head
		case m.Len - 1:
			k = Tail
		}
		fs[i] = Flit{Kind: k, Msg: m.ID, Src: m.Src, Dst: m.Dst, Seq: i}
	}
	return fs
}
