package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

type (
	phase uint8
	slot  int32
	node  int
)

// sample holds one field of every kind the codec walks.
type sample struct {
	u8      phase
	t, f    bool
	mask    uint32
	slot    slot
	u64     uint64
	i64     int64
	n       node
	negZero float64
	pi      float64
	blob    []byte
	empty   []byte
	list    []int64
	fixed   [3]int64
	queue   []node
	head    int
	m       map[node]int64
}

// walk is sample's one state walk: it encodes or decodes every field.
func (s *sample) walk(c *Codec) {
	U8(c, &s.u8)
	c.Bool(&s.t)
	c.Bool(&s.f)
	U32(c, &s.mask)
	U32(c, &s.slot)
	c.U64(&s.u64)
	I64(c, &s.i64)
	I64(c, &s.n)
	c.F64(&s.negZero)
	c.F64(&s.pi)
	c.Bytes(&s.blob)
	c.Bytes(&s.empty)
	Slice(c, &s.list, func(v *int64) { I64(c, v) })
	c.Fixed(len(s.fixed), "fixed words", func(i int) { I64(c, &s.fixed[i]) })
	Queue(c, &s.queue, &s.head, func(v *node) { I64(c, v) })
	SortedMap(c, &s.m, func(k *node, v *int64) {
		I64(c, k)
		I64(c, v)
	})
}

func fullSample() *sample {
	return &sample{
		u8: 0xAB, t: true, mask: 0xDEADBEEF, slot: -1,
		u64: math.MaxUint64 - 1, i64: math.MinInt64, n: -42,
		negZero: math.Copysign(0, -1), pi: math.Pi,
		blob: []byte{1, 2, 3}, list: []int64{7, -7},
		fixed: [3]int64{1, 2, 3},
		queue: []node{9, 8, 7}, head: 1,
		m: map[node]int64{5: 50, -1: 10, 3: 30},
	}
}

// encode runs walk through an encoder and returns the complete stream
// (header, payload, digest).
func encode(t *testing.T, walk func(*Codec)) []byte {
	t.Helper()
	var buf bytes.Buffer
	c, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	walk(c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeSample opens and decodes a complete stream, returning the first
// header, digest or decode error.
func decodeSample(b []byte) (*sample, error) {
	c, err := Open(b)
	if err != nil {
		return nil, err
	}
	s := &sample{}
	s.walk(c)
	return s, c.Close()
}

func TestPrimitiveRoundTrip(t *testing.T) {
	in := fullSample()
	b := encode(t, in.walk)
	got, err := decodeSample(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.negZero) != math.Float64bits(in.negZero) {
		t.Error("-0 lost its sign")
	}
	// The queue decodes to its pending part with head 0.
	want := *in
	want.queue, want.head = []node{8, 7}, 0
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("decoded\n %+v\nwant\n %+v", got, &want)
	}
	// The map is encoded in key order whatever its iteration order: encoding
	// the decoded value reproduces the stream byte for byte.
	if again := encode(t, got.walk); !bytes.Equal(again, b) {
		t.Error("re-encoding the decoded sample changed the bytes")
	}
}

// TestLargeFieldsCrossChunks round-trips payloads around the encoder's
// buffering granularity: many small fields spanning several chunks and one
// blob larger than a chunk.
func TestLargeFieldsCrossChunks(t *testing.T) {
	blob := bytes.Repeat([]byte{0x5A}, chunkSize+17)
	const n = 3 * chunkSize / 8
	b := encode(t, func(c *Codec) {
		for i := int64(0); i < n; i++ {
			I64(c, &i)
		}
		c.Bytes(&blob)
		last := int64(-1)
		I64(c, &last)
	})
	c, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		var got int64
		if I64(c, &got); got != i {
			t.Fatalf("field %d = %d", i, got)
		}
	}
	var gotBlob []byte
	var last int64
	c.Bytes(&gotBlob)
	I64(c, &last)
	if !bytes.Equal(gotBlob, blob) || last != -1 {
		t.Fatal("blob or trailing field differ")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRefused(t *testing.T) {
	b := encode(t, fullSample().walk)

	for _, v := range []uint32{1, 2, 3, 4} {
		old := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(old[len(Magic):], v)
		if _, err := Open(old); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d (want 5)", v)) {
			t.Errorf("version-%d header: err = %v, want an unsupported-version error", v, err)
		}
	}

	bad := append([]byte(nil), b...)
	bad[0] ^= 0xFF
	if _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("corrupt magic: err = %v, want a bad-magic error", err)
	}
}

// TestBitFlipFailsDigest flips one bit of the payload and one of the digest
// trailer; Open must refuse both with ErrDigest before decoding anything.
func TestBitFlipFailsDigest(t *testing.T) {
	b := encode(t, fullSample().walk)
	const digestLen = 32
	for _, at := range []int{len(Magic) + 4, len(b) - digestLen - 1, len(b) - 1} {
		c := append([]byte(nil), b...)
		c[at] ^= 0x01
		if _, err := Open(c); !errors.Is(err, ErrDigest) {
			t.Errorf("bit flipped at byte %d: Open = %v, want ErrDigest", at, err)
		}
	}
}

// stamp wraps a payload in a valid header and digest, as a forger would.
func stamp(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(Magic), Version)
	b = append(b, payload...)
	sum := sha256.Sum256(payload)
	return append(b, sum[:]...)
}

// TestEveryTruncationErrors feeds every proper prefix of a valid snapshot to
// the decoder, and every proper prefix of its payload re-stamped with a
// valid digest: each must end in an error, none may panic.
func TestEveryTruncationErrors(t *testing.T) {
	b := encode(t, fullSample().walk)
	for n := 0; n < len(b); n++ {
		if _, err := decodeSample(b[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(b))
		}
	}
	payload := b[len(Magic)+4 : len(b)-sha256.Size]
	for n := 0; n < len(payload); n++ {
		if _, err := decodeSample(stamp(payload[:n])); err == nil {
			t.Fatalf("re-stamped payload prefix of %d/%d bytes decoded without error", n, len(payload))
		}
	}
}

// TestCountAboveLimit: in a digest-valid payload, an element count or a
// byte-string length larger than the payload bytes left is refused before
// anything is sized from it, and the error is sticky.
func TestCountAboveLimit(t *testing.T) {
	b := encode(t, func(c *Codec) {
		n, huge := 5, 1<<30+1
		c.Count(&n)
		c.Count(&huge)
	})

	c, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if c.Count(&n); n != 0 || c.Err() == nil || !strings.Contains(c.Err().Error(), "implausible element count 5") {
		t.Fatalf("count 5 with 4 bytes left = %d, err %v; want 0 and an implausible-count error", n, c.Err())
	}
	// Later counts and byte strings come back empty and Close reports it.
	var p []byte
	if c.Count(&n); n != 0 {
		t.Error("count after an error returned data")
	}
	if c.Bytes(&p); p != nil {
		t.Error("byte string after an error returned data")
	}
	if err := c.Close(); err == nil {
		t.Error("Close after an error returned nil")
	}

	// An oversized byte-string length is refused before it is allocated.
	c, err = Open(b)
	if err != nil {
		t.Fatal(err)
	}
	var skip uint64
	c.word(&skip, 4)
	if c.Bytes(&p); p != nil || c.Err() == nil || !strings.Contains(c.Err().Error(), "implausible element count 1073741825") {
		t.Fatalf("byte string with a 1 GiB+1 length = %v, err %v", p, c.Err())
	}
}

// TestDecodeRefusesInconsistentPayloads covers the structural checks that
// fire on digest-valid payloads: bytes left after the walk, a fixed-length
// sequence of the wrong length, a repeated map key.
func TestDecodeRefusesInconsistentPayloads(t *testing.T) {
	extra := encode(t, func(c *Codec) {
		fullSample().walk(c)
		c.Bool(new(bool))
	})
	if _, err := decodeSample(extra); err == nil || !strings.Contains(err.Error(), "1 payload bytes left") {
		t.Errorf("trailing byte: err = %v", err)
	}

	fixed := encode(t, func(c *Codec) {
		c.Fixed(2, "words", func(int) { c.U64(new(uint64)) })
	})
	c, err := Open(fixed)
	if err != nil {
		t.Fatal(err)
	}
	c.Fixed(3, "words", func(int) { c.U64(new(uint64)) })
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "snapshot has 2 words, engine has 3 (topology/params mismatch)") {
		t.Errorf("fixed-length mismatch: err = %v", err)
	}

	repeated := encode(t, func(c *Codec) {
		n, k, v := 2, int64(4), int64(0)
		c.Count(&n)
		for i := 0; i < n; i++ {
			I64(c, &k)
			I64(c, &v)
		}
	})
	if c, err = Open(repeated); err != nil {
		t.Fatal(err)
	}
	var m map[int64]int64
	SortedMap(c, &m, func(k, v *int64) {
		I64(c, k)
		I64(c, v)
	})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "map key 4 repeated") {
		t.Errorf("repeated map key: err = %v", err)
	}
}
