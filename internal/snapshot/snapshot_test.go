package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// encodeSample writes one field of every primitive kind and returns the
// complete stream (header, payload, digest).
func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xDEADBEEF)
	w.U64(math.MaxUint64 - 1)
	w.I64(math.MinInt64)
	w.Int(-42)
	w.F64(math.Copysign(0, -1))
	w.F64(math.Pi)
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.String("wave")
	w.U32(3) // an element count
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readSample reads the fields encodeSample wrote, in lockstep, and reports
// whether every value matched.
func readSample(r *Reader) bool {
	return r.U8() == 0xAB &&
		r.Bool() && !r.Bool() &&
		r.U32() == 0xDEADBEEF &&
		r.U64() == math.MaxUint64-1 &&
		r.I64() == math.MinInt64 &&
		r.Int() == -42 &&
		math.Float64bits(r.F64()) == math.Float64bits(math.Copysign(0, -1)) &&
		r.F64() == math.Pi &&
		bytes.Equal(r.Bytes(), []byte{1, 2, 3}) &&
		len(r.Bytes()) == 0 &&
		r.String() == "wave" &&
		r.Count(3) == 3
}

// decodeSample decodes a complete stream and reports the first stream
// error, value mismatch or digest failure.
func decodeSample(b []byte) error {
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		return err
	}
	ok := readSample(r)
	if r.Err() != nil {
		return r.Err()
	}
	if !ok {
		return errors.New("decoded fields differ from the encoded ones")
	}
	return r.Close()
}

func TestPrimitiveRoundTrip(t *testing.T) {
	if err := decodeSample(encodeSample(t)); err != nil {
		t.Fatal(err)
	}
}

// TestLargeFieldsCrossChunks round-trips payloads around the internal
// buffering granularity: many small fields spanning several chunks and one
// blob larger than a chunk (the buffer-bypass path).
func TestLargeFieldsCrossChunks(t *testing.T) {
	blob := bytes.Repeat([]byte{0x5A}, chunkSize+17)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3 * chunkSize / 8
	for i := 0; i < n; i++ {
		w.I64(int64(i))
	}
	w.Bytes(blob)
	w.I64(-1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := r.I64(); got != int64(i) {
			t.Fatalf("field %d = %d", i, got)
		}
	}
	if !bytes.Equal(r.Bytes(), blob) || r.I64() != -1 {
		t.Fatal("blob or trailing field differ")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRefused(t *testing.T) {
	b := encodeSample(t)

	v1 := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(v1[len(Magic):], 1)
	if _, err := NewReader(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("version-1 header: err = %v, want an unsupported-version error", err)
	}

	bad := append([]byte(nil), b...)
	bad[0] ^= 0xFF
	if _, err := NewReader(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("corrupt magic: err = %v, want a bad-magic error", err)
	}
}

// TestBitFlipFailsDigest flips one bit of the payload's last field (the
// count 3 becomes 2, so the lockstep decode still reads every field) and one
// of the digest trailer; both must surface as ErrDigest from Close.
func TestBitFlipFailsDigest(t *testing.T) {
	b := encodeSample(t)
	const digestLen = 32
	for _, at := range []int{len(b) - digestLen - 4, len(b) - 1} {
		c := append([]byte(nil), b...)
		c[at] ^= 0x01
		r, err := NewReader(bytes.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		readSample(r)
		if r.Err() != nil {
			t.Fatalf("bit flipped at byte %d: decode error %v before the digest check", at, r.Err())
		}
		if err := r.Close(); !errors.Is(err, ErrDigest) {
			t.Errorf("bit flipped at byte %d: Close = %v, want ErrDigest", at, err)
		}
	}
}

// TestEveryTruncationErrors feeds every proper prefix of a valid snapshot to
// the decoder: each must end in an error, none may panic.
func TestEveryTruncationErrors(t *testing.T) {
	b := encodeSample(t)
	for n := 0; n < len(b); n++ {
		if err := decodeSample(b[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(b))
		}
	}
}

func TestCountAboveLimit(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.U32(5)
	w.U32(1<<30 + 1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()

	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if n := r.Count(4); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible element count 5") {
		t.Fatalf("Count(4) on 5 = %d, err %v; want 0 and an implausible-count error", n, r.Err())
	}
	// The error is sticky: later counts and byte strings come back empty and
	// Close reports it.
	if r.Count(1<<20) != 0 || r.Bytes() != nil {
		t.Error("reads after an error returned data")
	}
	if err := r.Close(); err == nil {
		t.Error("Close after an error returned nil")
	}

	// An oversized byte-string length is refused before it is allocated.
	r, err = NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if r.Count(5) != 5 {
		t.Fatalf("Count(5) on 5: err %v", r.Err())
	}
	if p := r.Bytes(); p != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "implausible field length") {
		t.Fatalf("Bytes with a 1 GiB+1 length = %v, err %v", p, r.Err())
	}
}
