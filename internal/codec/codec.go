// Package codec is the envelope every persisted stream shares: the
// checkpoint (internal/checkpoint), the fragment store
// (internal/fragstore) and the flight-recorder bundle (internal/flight).
// docs/FORMAT.md specifies it once for all three.
//
// A stream is an 8-byte magic, a u32 version, a format-specific
// payload, and a CRC-64/ECMA trailer over every preceding byte. All
// integers are fixed-width little-endian. Open checks length, then
// magic, then the trailer, then version — so a flipped bit anywhere
// reports ErrChecksum, never a misleading structural error, and a torn
// file is never half-parsed.
//
// Decoding goes through a sticky-error Reader: the first failure is
// latched as a *Error carrying its byte offset, and every later read
// returns a zero value, so a decoder reads its fields straight through
// and checks Done once at the end. Writer provides the matching
// appenders.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"sort"
)

// Decode failure causes, matched with errors.Is against the returned
// *Error.
var (
	ErrBadMagic  = errors.New("bad magic")
	ErrVersion   = errors.New("unsupported version")
	ErrTruncated = errors.New("truncated")
	ErrChecksum  = errors.New("checksum mismatch")
	ErrCanonical = errors.New("non-canonical encoding")
	ErrTrailing  = errors.New("trailing bytes after checksum")
)

// Error is the typed decode failure: the stream format, the byte offset
// where decoding stopped, the failure class (one of the Err sentinels),
// and detail.
type Error struct {
	Format string
	Off    int
	Cause  error
	Detail string
}

// Error renders the failure as "format: cause at offset N: detail".
func (e *Error) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("%s: %v at offset %d", e.Format, e.Cause, e.Off)
	}
	return fmt.Sprintf("%s: %v at offset %d: %s", e.Format, e.Cause, e.Off, e.Detail)
}

// Unwrap exposes the failure class for errors.Is.
func (e *Error) Unwrap() error { return e.Cause }

var crcTable = crc64.MakeTable(crc64.ECMA)

// Checksum is the CRC-64/ECMA of b, the checksum of every trailer.
func Checksum(b []byte) uint64 { return crc64.Checksum(b, crcTable) }

// headerLen is the size of the magic and version that open a stream;
// trailerLen the size of the CRC that closes it.
const (
	headerLen  = 8 + 4
	trailerLen = 8
)

// Format names one stream type: its error prefix, its magic, and the
// one version this build reads and writes.
type Format struct {
	Name    string
	Magic   [8]byte
	Version uint32
}

// NewWriter starts a stream of this format: magic and version, with
// room for size more bytes.
func (f Format) NewWriter(size int) *Writer {
	w := NewWriter(headerLen + size + trailerLen)
	w.Raw(f.Magic[:])
	w.U32(f.Version)
	return w
}

// Open checks b's envelope — length, magic, trailer CRC, version, in
// that order — and returns a Reader over the payload, positioned after
// the version. Offsets in errors are offsets into b.
func (f Format) Open(b []byte) (*Reader, error) {
	fail := func(off int, cause error, format string, args ...any) (*Reader, error) {
		return nil, &Error{Format: f.Name, Off: off, Cause: cause, Detail: fmt.Sprintf(format, args...)}
	}
	if len(b) < headerLen+trailerLen {
		return fail(len(b), ErrTruncated, "%d bytes, shorter than header and trailer", len(b))
	}
	if [8]byte(b) != f.Magic {
		return fail(0, ErrBadMagic, "got %q", b[:8])
	}
	payload := b[:len(b)-trailerLen]
	if got, want := binary.LittleEndian.Uint64(b[len(payload):]), Checksum(payload); got != want {
		return fail(len(payload), ErrChecksum, "got %#x, want %#x", got, want)
	}
	if v := binary.LittleEndian.Uint32(b[8:]); v != f.Version {
		return fail(8, ErrVersion, "got %d, support %d", v, f.Version)
	}
	return &Reader{format: f.Name, b: payload, off: headerLen}, nil
}

// Reader is a bounds-checked little-endian reader with a sticky error:
// the first failure is latched with its offset, and every later read
// returns a zero value without advancing.
type Reader struct {
	format string
	b      []byte
	off    int
	// failed latches the first failure. err describes it, except for a
	// truncation, which records only the byte count it wanted and is
	// described on demand by Err: that keeps Take free of calls, so it
	// and the fixed-width reads inline.
	failed bool
	want   int
	err    *Error
}

// NewReader reads b directly, with no envelope; failures are reported
// under the format name.
func NewReader(format string, b []byte) *Reader {
	return &Reader{format: format, b: b}
}

// Err returns the latched failure, or nil.
func (r *Reader) Err() error {
	if !r.failed {
		return nil
	}
	if r.err == nil {
		r.err = &Error{Format: r.format, Off: r.off, Cause: ErrTruncated,
			Detail: fmt.Sprintf("wants %d bytes, %d remain", r.want, r.remaining())}
	}
	return r.err
}

// Off is the offset of the next unread byte.
func (r *Reader) Off() int { return r.off }

// remaining is the number of unread bytes.
func (r *Reader) remaining() int { return len(r.b) - r.off }

// Fail latches cause at the current offset unless a failure is already
// latched; decoders call it for values that parse but break a
// canonical-form rule.
func (r *Reader) Fail(cause error, format string, args ...any) {
	if !r.failed {
		r.failed = true
		r.err = &Error{Format: r.format, Off: r.off, Cause: cause, Detail: fmt.Sprintf(format, args...)}
	}
}

// Take returns the next n bytes (aliasing the stream), or nil after a
// failure.
func (r *Reader) Take(n int) []byte {
	if r.failed || n < 0 || r.remaining() < n {
		if !r.failed {
			r.failed, r.want = true, n
		}
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if v := r.Take(1); v != nil {
		return v[0]
	}
	return 0
}

// U32 reads a little-endian u32.
func (r *Reader) U32() uint32 {
	if v := r.Take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

// U64 reads a little-endian u64.
func (r *Reader) U64() uint64 {
	if v := r.Take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

// Blob reads a u32 length and that many bytes (aliasing the stream).
func (r *Reader) Blob() []byte { return r.Take(int(r.U32())) }

// Count reads a u32 element count and checks that many elements of at
// least min bytes each can fit in the rest of the stream, so callers
// may size allocations and loops by it. It returns 0 after a failure.
func (r *Reader) Count(min int) int {
	n := r.U32()
	if int64(n)*int64(min) > int64(r.remaining()) {
		r.Fail(ErrTruncated, "%d elements of %d+ bytes cannot fit in %d bytes", n, min, r.remaining())
	}
	if r.failed {
		return 0
	}
	return int(n)
}

// Counters reads a counter section (Writer.Counters' layout), enforcing
// its canonical form: non-empty names in strictly ascending order, no
// zero values. The map is empty, not nil, when the section is.
func (r *Reader) Counters() map[string]uint64 {
	n := r.Count(1 + 1 + 8)
	out := make(map[string]uint64, n)
	prev := ""
	for i := 0; i < n && !r.failed; i++ {
		nameLen := r.U8()
		if nameLen == 0 {
			r.Fail(ErrCanonical, "empty counter name")
		}
		name := string(r.Take(int(nameLen)))
		if i > 0 && name <= prev {
			r.Fail(ErrCanonical, "counter %q not sorted after %q", name, prev)
		}
		prev = name
		v := r.U64()
		if v == 0 {
			r.Fail(ErrCanonical, "zero-valued counter %q", name)
		}
		out[name] = v
	}
	return out
}

// Done latches ErrTrailing if unread bytes remain and returns the
// latched failure, or nil for a stream read exactly to its end.
func (r *Reader) Done() error {
	if r.remaining() != 0 {
		r.Fail(ErrTrailing, "%d bytes", r.remaining())
	}
	return r.Err()
}

// Writer appends fixed-width little-endian fields.
type Writer struct {
	b []byte
}

// NewWriter returns an empty Writer with room for size bytes.
func NewWriter(size int) *Writer { return &Writer{b: make([]byte, 0, size)} }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.b }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.b = append(w.b, v) }

// U32 appends a little-endian u32.
func (w *Writer) U32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }

// U64 appends a little-endian u64.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// Raw appends b verbatim.
func (w *Writer) Raw(b []byte) { w.b = append(w.b, b...) }

// Blob appends a u32 length and b.
func (w *Writer) Blob(b []byte) {
	w.U32(uint32(len(b)))
	w.Raw(b)
}

// Counters appends a counter section: a u32 count, then per nonzero
// counter in ascending name order a u8 name length, the name, and a u64
// value. Zero values are omitted, so equal accounting always encodes to
// equal bytes.
func (w *Writer) Counters(m map[string]uint64) {
	names := make([]string, 0, len(m))
	for name, v := range m {
		if v != 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	w.U32(uint32(len(names)))
	for _, name := range names {
		w.U8(byte(len(name)))
		w.b = append(w.b, name...)
		w.U64(m[name])
	}
}

// Seal appends the CRC-64/ECMA trailer over everything written and
// returns the finished stream.
func (w *Writer) Seal() []byte {
	w.U64(Checksum(w.b))
	return w.b
}
