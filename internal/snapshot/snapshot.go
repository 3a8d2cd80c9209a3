// Package snapshot provides the versioned, digest-stamped binary codec
// behind wave.Simulator.Snapshot/Restore. It is a leaf package (stdlib
// only). Each stateful layer states its checkpoint layout once, as a
// State(*Codec) method that walks its fields in order: the same walk writes
// the fields when the Codec encodes and fills them in when it decodes, so
// the two directions cannot drift apart. The few steps that differ by
// direction (refusing closure-carrying work on encode, range checks and
// re-linking on decode) branch on Codec.Decoding.
//
// Format:
//
//	magic "WAVESNAP" (8 bytes) | version u32 | payload | sha256(payload)
//
// The payload is a flat sequence of fixed-width little-endian fields,
// u32-count-prefixed sequences and u32-length-prefixed byte strings.
//
// Decoding is digest-first: Open checks the header and the SHA-256 of the
// whole payload before any field is decoded, so a truncated or corrupted
// snapshot is refused before it can size an allocation. A digest is not a
// signature, though, so decoding still distrusts the payload: every count
// and length is bounded by the payload bytes left, and sequences grow by
// append as their elements are decoded, never by a make sized from the
// stream. A forged payload therefore costs memory in proportion to its own
// length.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"slices"
)

// Magic identifies a snapshot stream.
const Magic = "WAVESNAP"

// Version is the current snapshot format version. Readers refuse other
// versions: state layout changes must bump it. Version 2 dropped the
// auto-tuner fields and the engine worker count from the fabric state and
// the per-event shard index from the event queue. Version 3 dropped the
// watchdog's pending-progress flag, the fabric's circuit-transfer ages, the
// protocol manager's age queue and the two oracle toggles from the embedded
// configuration. Version 4 added the open-loop traffic generator's
// calendar of next message starts.
const Version = 4

// ErrDigest is returned by Open when the trailing digest does not match the
// payload.
var ErrDigest = errors.New("snapshot: digest mismatch (truncated or corrupted)")

// errShort reports a field running past the end of a digest-valid payload:
// the stream was written by a different layout (or forged).
var errShort = errors.New("snapshot: payload ends inside a field")

// chunkSize is the encoder's buffering granularity. A snapshot payload is
// millions of tiny fixed-width fields; on a mega topology, issuing each as
// its own underlying Write (and its own 1-8 byte sha256 update) dominated
// snapshot time. Fields accumulate into chunkSize runs that hit the stream
// and the hash once.
const chunkSize = 64 << 10

// Codec walks a snapshot payload in one direction: an encoder (NewEncoder)
// writes each field it is handed, a decoder (Open) overwrites it. All
// methods are sticky-error: after the first failure, later calls are no-ops
// and Err and Close report that failure.
type Codec struct {
	dec bool
	err error

	// Encoding: the destination, the running payload hash and the payload
	// not yet written or hashed.
	w    io.Writer
	h    hash.Hash
	pend []byte

	// Decoding: the payload bytes not yet consumed.
	in []byte
}

// NewEncoder writes the magic/version header to w and returns an encoding
// Codec. Close stamps the digest.
func NewEncoder(w io.Writer) (*Codec, error) {
	head := binary.LittleEndian.AppendUint32([]byte(Magic), Version)
	if _, err := w.Write(head); err != nil {
		return nil, err
	}
	return &Codec{w: w, h: sha256.New(), pend: make([]byte, 0, chunkSize)}, nil
}

// Open checks a complete snapshot's header and trailing digest and returns
// a decoding Codec positioned at the start of its payload. It never
// decodes a field of a stream whose digest does not match.
func Open(data []byte) (*Codec, error) {
	head := len(Magic) + 4
	if len(data) < head {
		return nil, fmt.Errorf("snapshot: header: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, errors.New("snapshot: bad magic (not a snapshot)")
	}
	if v := binary.LittleEndian.Uint32(data[len(Magic):head]); v != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", v, Version)
	}
	if len(data) < head+sha256.Size {
		return nil, fmt.Errorf("snapshot: digest: %w", io.ErrUnexpectedEOF)
	}
	payload, digest := data[head:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], digest) {
		return nil, ErrDigest
	}
	return &Codec{dec: true, in: payload}, nil
}

// Decoding reports whether the Codec fills fields in (true) or writes them
// out (false).
func (c *Codec) Decoding() bool { return c.dec }

// Err returns the first failure, if any.
func (c *Codec) Err() error { return c.err }

// Failf records a failure (unless one is already recorded) and returns the
// Codec's error. State walks use it to refuse state they cannot encode or
// decoded values out of range.
func (c *Codec) Failf(format string, args ...any) error {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	return c.err
}

// Close finishes the walk. An encoder flushes the buffered payload and
// stamps its SHA-256 digest; a decoder reports any payload bytes the walk
// left unread.
func (c *Codec) Close() error {
	if c.dec {
		if c.err == nil && len(c.in) > 0 {
			c.err = fmt.Errorf("snapshot: %d payload bytes left after the last field", len(c.in))
		}
		return c.err
	}
	c.flush()
	if c.err != nil {
		return c.err
	}
	_, err := c.w.Write(c.h.Sum(nil))
	return err
}

// flush hashes and writes the pending chunk.
func (c *Codec) flush() {
	if c.err != nil || len(c.pend) == 0 {
		return
	}
	c.h.Write(c.pend)
	if _, err := c.w.Write(c.pend); err != nil {
		c.err = err
	}
	c.pend = c.pend[:0]
}

func (c *Codec) put(p []byte) {
	c.pend = append(c.pend, p...)
	if len(c.pend) >= chunkSize {
		c.flush()
	}
}

// take consumes the next n payload bytes, or fails when fewer are left.
func (c *Codec) take(n int) []byte {
	if len(c.in) < n {
		c.err = errShort
		return nil
	}
	p := c.in[:n]
	c.in = c.in[n:]
	return p
}

// word walks an n-byte (1, 4 or 8) little-endian field: the encoder writes
// the low n bytes of *v, the decoder sets *v from them.
func (c *Codec) word(v *uint64, n int) {
	if c.err != nil {
		return
	}
	var b [8]byte
	if !c.dec {
		binary.LittleEndian.PutUint64(b[:], *v)
		c.put(b[:n])
		return
	}
	if p := c.take(n); p != nil {
		copy(b[:], p)
		*v = binary.LittleEndian.Uint64(b[:])
	}
}

// Bool walks a bool as one byte.
func (c *Codec) Bool(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	c.word(&x, 1)
	if c.dec {
		*v = x != 0
	}
}

// U64 walks a uint64.
func (c *Codec) U64(v *uint64) { c.word(v, 8) }

// F64 walks a float64 by its IEEE-754 bits — bit-exact round-trip.
func (c *Codec) F64(v *float64) {
	x := math.Float64bits(*v)
	c.word(&x, 8)
	if c.dec {
		*v = math.Float64frombits(x)
	}
}

// U8 walks a one-byte value (a phase, status or kind enum).
func U8[T ~uint8](c *Codec, v *T) {
	x := uint64(*v)
	c.word(&x, 1)
	if c.dec {
		*v = T(x)
	}
}

// U32 walks a four-byte value: a bit mask, or an int32 slot or buffer index
// (stored as its two's-complement bits, so -1 round-trips).
func U32[T ~uint32 | ~int32](c *Codec, v *T) {
	x := uint64(uint32(*v))
	c.word(&x, 4)
	if c.dec {
		*v = T(x)
	}
}

// I64 walks an int or int64 (or a named type over one: node, link, message
// and circuit IDs) as eight bytes.
func I64[T ~int | ~int64](c *Codec, v *T) {
	x := uint64(*v)
	c.word(&x, 8)
	if c.dec {
		*v = T(int64(x))
	}
}

// Count walks a u32 element count. Every element encodes to at least one
// byte, so the decoder refuses a count larger than the payload bytes left;
// on failure *n becomes 0, so a loop bounded by it does not run.
func (c *Codec) Count(n *int) {
	x := uint64(uint32(*n))
	c.word(&x, 4)
	if !c.dec {
		return
	}
	*n = 0
	if c.err != nil {
		return
	}
	if x > uint64(len(c.in)) {
		c.Failf("snapshot: implausible element count %d (%d payload bytes left)", x, len(c.in))
		return
	}
	*n = int(x)
}

// Bytes walks a u32-length-prefixed byte string. The decoded bytes are a
// copy, not a view of the payload.
func (c *Codec) Bytes(p *[]byte) {
	n := len(*p)
	c.Count(&n)
	if c.err != nil {
		return
	}
	if !c.dec {
		c.put(*p)
		return
	}
	*p = append([]byte(nil), c.take(n)...)
}

// Fixed walks n elements whose number the engine fixes from its
// configuration (one per link VC, wave channel, ...), as a count followed
// by fn(0) ... fn(n-1). Decoding a snapshot with a different count fails
// with a topology/params mismatch naming what.
func (c *Codec) Fixed(n int, what string, fn func(i int)) {
	got := n
	c.Count(&got)
	if c.err == nil && got != n {
		c.Failf("snapshot has %d %s, engine has %d (topology/params mismatch)", got, what, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		fn(i)
	}
}

// Slice walks a count-prefixed slice, fn walking one element. The decoder
// rebuilds *s from empty (reusing its backing array) by appending a zero
// element per count and handing fn a pointer to it.
func Slice[T any](c *Codec, s *[]T, fn func(*T)) {
	n := len(*s)
	c.Count(&n)
	if c.dec {
		*s = (*s)[:0]
	}
	for i := 0; i < n && c.err == nil; i++ {
		if c.dec {
			var zero T
			*s = append(*s, zero)
		}
		fn(&(*s)[i])
	}
}

// Queue walks a FIFO held as a slice and the index of its first pending
// element: only (*q)[*head:] is encoded, and the decoder rebuilds the queue
// with head 0.
func Queue[T any](c *Codec, q *[]T, head *int, fn func(*T)) {
	if c.dec {
		*head = 0
		Slice(c, q, fn)
		return
	}
	pending := (*q)[*head:]
	Slice(c, &pending, fn)
}

// SortedMap walks a map as a count followed by its entries in ascending key
// order (a map has no canonical order of its own). fn walks one entry; the
// decoder hands it zero values and it must fill in both the key and the
// value. The decoder empties *m before filling it (allocating a map only
// when *m is nil and entries follow) and refuses a repeated key.
func SortedMap[K ~int | ~int64, V any](c *Codec, m *map[K]V, fn func(k *K, v *V)) {
	if !c.dec {
		keys := make([]K, 0, len(*m))
		for k := range *m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		n := len(keys)
		c.Count(&n)
		for _, k := range keys {
			v := (*m)[k]
			fn(&k, &v)
		}
		return
	}
	var n int
	c.Count(&n)
	clear(*m)
	for i := 0; i < n && c.err == nil; i++ {
		var k K
		var v V
		fn(&k, &v)
		if *m == nil {
			*m = make(map[K]V)
		}
		if _, dup := (*m)[k]; dup {
			c.Failf("snapshot: map key %d repeated", k)
		}
		(*m)[k] = v
	}
}
