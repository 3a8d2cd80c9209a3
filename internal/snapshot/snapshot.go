// Package snapshot provides the versioned, digest-stamped binary codec
// behind wave.Simulator.Snapshot/Restore. It is a leaf package (stdlib
// only): each subsystem imports it and implements EncodeState/DecodeState
// against the Writer/Reader primitives here.
//
// Format:
//
//	magic "WAVESNAP" (8 bytes) | version u32 | payload | sha256(payload)
//
// The payload is a flat sequence of fixed-width little-endian fields and
// length-prefixed byte strings, written and read in lockstep by the
// subsystem Encode/Decode pairs. The trailing SHA-256 digest covers every
// payload byte; Reader.Close verifies it, so a truncated or corrupted
// snapshot fails loudly instead of restoring a subtly wrong fabric.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
)

// Magic identifies a snapshot stream.
const Magic = "WAVESNAP"

// Version is the current snapshot format version. Readers refuse other
// versions: state layout changes must bump it. Version 2 dropped the
// auto-tuner fields and the engine worker count from the fabric state and
// the per-event shard index from the event queue.
const Version = 2

// ErrDigest is returned by Reader.Close when the trailing digest does not
// match the payload read.
var ErrDigest = errors.New("snapshot: digest mismatch (truncated or corrupted)")

// chunkSize is the internal buffering granularity of Writer and Reader. A
// snapshot payload is millions of tiny fixed-width fields; on a mega
// topology, issuing each as its own underlying Write/Read (and its own
// 1-8 byte sha256 update) dominated snapshot time. Fields accumulate into
// chunkSize runs that hit the stream and the hash once.
const chunkSize = 64 << 10

// Writer serialises snapshot payload fields, hashing every byte written.
// Fields are buffered internally (chunkSize runs); Close flushes before
// stamping the digest. All methods are sticky-error: after a write fails,
// subsequent calls are no-ops and Close reports the first error.
type Writer struct {
	w    io.Writer
	h    hash.Hash
	err  error
	buf  [8]byte
	pend []byte // buffered payload, not yet written or hashed
}

// NewWriter writes the magic/version header and returns a payload writer.
func NewWriter(w io.Writer) (*Writer, error) {
	if _, err := w.Write([]byte(Magic)); err != nil {
		return nil, err
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], Version)
	if _, err := w.Write(v[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w, h: sha256.New(), pend: make([]byte, 0, chunkSize)}, nil
}

// flush hashes and writes the pending chunk.
func (w *Writer) flush() {
	if w.err != nil || len(w.pend) == 0 {
		return
	}
	w.h.Write(w.pend)
	if _, err := w.w.Write(w.pend); err != nil {
		w.err = err
	}
	w.pend = w.pend[:0]
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	if len(w.pend)+len(p) > chunkSize {
		w.flush()
		if w.err != nil {
			return
		}
		if len(p) > chunkSize {
			// Oversized field (a big Bytes blob): bypass the buffer.
			w.h.Write(p)
			if _, err := w.w.Write(p); err != nil {
				w.err = err
			}
			return
		}
	}
	w.pend = append(w.pend, p...)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.write([]byte{v}) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// I64 writes an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 by its IEEE-754 bits — bit-exact round-trip.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bytes writes a u32 length prefix followed by the raw bytes.
func (w *Writer) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	w.write(p)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) { w.Bytes([]byte(s)) }

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// Close flushes buffered payload and stamps the SHA-256 digest of the
// payload after it. The digest itself is not hashed.
func (w *Writer) Close() error {
	w.flush()
	if w.err != nil {
		return w.err
	}
	_, err := w.w.Write(w.h.Sum(nil))
	return err
}

// Reader reads snapshot payload fields, hashing every byte read so Close
// can verify the trailing digest. It buffers internally (chunkSize runs),
// so it may read ahead of the last field consumed: hand it a dedicated
// stream, not one with trailing data a co-reader still needs.
type Reader struct {
	r    io.Reader
	h    hash.Hash
	err  error
	buf  [8]byte
	rbuf []byte // buffered window: rbuf[pos:end] is unconsumed
	pos  int
	end  int
}

// NewReader checks the magic/version header and returns a payload reader.
func NewReader(r io.Reader) (*Reader, error) {
	head := make([]byte, len(Magic)+4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("snapshot: header: %w", err)
	}
	if string(head[:len(Magic)]) != Magic {
		return nil, errors.New("snapshot: bad magic (not a snapshot)")
	}
	if v := binary.LittleEndian.Uint32(head[len(Magic):]); v != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", v, Version)
	}
	return &Reader{r: r, h: sha256.New(), rbuf: make([]byte, chunkSize)}, nil
}

// readRaw fills p from the buffered stream without hashing (the digest
// trailer is read through it too, and must not hash itself).
func (r *Reader) readRaw(p []byte) {
	if r.err != nil {
		return
	}
	for len(p) > 0 {
		if r.pos == r.end {
			n, err := r.r.Read(r.rbuf)
			if n == 0 {
				if err == nil || err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				r.err = fmt.Errorf("snapshot: short read: %w", err)
				return
			}
			r.pos, r.end = 0, n
		}
		n := copy(p, r.rbuf[r.pos:r.end])
		r.pos += n
		p = p[n:]
	}
}

func (r *Reader) read(p []byte) {
	r.readRaw(p)
	if r.err == nil {
		r.h.Write(p)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	r.read(r.buf[:1])
	return r.buf[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	r.read(r.buf[:4])
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	r.read(r.buf[:8])
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bytes reads a length-prefixed byte string.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	// Cap pre-allocation: a corrupted length must not OOM before the
	// digest check has a chance to reject the stream.
	if n > 1<<30 {
		r.err = fmt.Errorf("snapshot: implausible field length %d", n)
		return nil
	}
	p := make([]byte, n)
	r.read(p)
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// Count reads a u32 element count and rejects values above max, so decode
// loops on a corrupted stream stay allocation-bounded until the digest
// check can condemn it. Returns 0 once the stream is in error.
func (r *Reader) Count(max int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n > max {
		r.err = fmt.Errorf("snapshot: implausible element count %d (max %d)", n, max)
		return 0
	}
	return n
}

// Err returns the first read error, if any.
func (r *Reader) Err() error { return r.err }

// Close reads the trailing digest and verifies it against the payload.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	want := make([]byte, sha256.Size)
	r.readRaw(want)
	if r.err != nil {
		return fmt.Errorf("snapshot: digest: %w", r.err)
	}
	got := r.h.Sum(nil)
	for i := range want {
		if want[i] != got[i] {
			return ErrDigest
		}
	}
	return nil
}
