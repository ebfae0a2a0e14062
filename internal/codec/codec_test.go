package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

var testFormat = Format{Name: "test", Magic: [8]byte{'T', 'E', 'S', 'T', 'F', 'M', 'T', '0'}, Version: 3}

// seal wraps payload in testFormat's envelope.
func seal(payload []byte) []byte {
	w := testFormat.NewWriter(len(payload))
	w.Raw(payload)
	return w.Seal()
}

// resealed recomputes b's trailer after a deliberate mutation.
func resealed(b []byte) []byte {
	out := bytes.Clone(b)
	binary.LittleEndian.PutUint64(out[len(out)-trailerLen:], Checksum(out[:len(out)-trailerLen]))
	return out
}

func TestOpenCheckOrder(t *testing.T) {
	valid := seal([]byte("payload"))
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(valid)) }
	cases := []struct {
		name string
		b    []byte
		want error
		off  int
	}{
		{"empty", nil, ErrTruncated, 0},
		{"short with bad magic", []byte("XXXXXXXXXXXX"), ErrTruncated, 12},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic, 0},
		{"payload flip", mutate(func(b []byte) []byte { b[13] ^= 1; return b }), ErrChecksum, len(valid) - trailerLen},
		{"version, stale crc", mutate(func(b []byte) []byte { b[8]++; return b }), ErrChecksum, len(valid) - trailerLen},
		{"version", mutate(func(b []byte) []byte { b[8]++; return resealed(b) }), ErrVersion, 8},
	}
	for _, c := range cases {
		r, err := testFormat.Open(c.b)
		var e *Error
		if r != nil || !errors.As(err, &e) || !errors.Is(err, c.want) || e.Off != c.off || e.Format != "test" {
			t.Errorf("%s: Open = (%v, %v), want %v at offset %d", c.name, r, err, c.want, c.off)
		}
	}
	r, err := testFormat.Open(valid)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Take(7); string(got) != "payload" || r.Done() != nil {
		t.Fatalf("payload = %q, Done = %v", got, r.Done())
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader("test", []byte{1, 2, 3, 4, 5})
	if v := r.U32(); v != 0x04030201 {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0 || r.Off() != 4 {
		t.Fatalf("short U64 = %#x at offset %d, want 0 at 4", v, r.Off())
	}
	// Later reads return zero without advancing; later failures do not
	// replace the first.
	if v := r.U8(); v != 0 || r.Off() != 4 {
		t.Fatalf("U8 after failure = %d at offset %d", v, r.Off())
	}
	r.Fail(ErrCanonical, "ignored")
	var e *Error
	if err := r.Done(); !errors.As(err, &e) || e.Cause != ErrTruncated || e.Off != 4 {
		t.Fatalf("Done = %v, want the first failure (truncated at 4)", err)
	}
	if got := e.Error(); got != "test: truncated at offset 4: wants 8 bytes, 1 remain" {
		t.Fatalf("Error() = %q", got)
	}

	r = NewReader("test", []byte{0, 0})
	r.U8()
	if err := r.Done(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Done with a byte left = %v, want ErrTrailing", err)
	}
}

func TestCount(t *testing.T) {
	w := NewWriter(0)
	w.U32(3)
	w.Raw(make([]byte, 6))
	if n := NewReader("test", w.Bytes()).Count(2); n != 3 {
		t.Fatalf("Count(2) = %d, want 3", n)
	}
	r := NewReader("test", w.Bytes())
	if n := r.Count(3); n != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Count(3) = %d, %v; want 0 and truncation", n, r.Err())
	}
}

func TestCounters(t *testing.T) {
	m := map[string]uint64{"b": 2, "a": 1, "zero": 0}
	w := NewWriter(0)
	w.Counters(m)
	want := []byte{2, 0, 0, 0, 1, 'a', 1, 0, 0, 0, 0, 0, 0, 0, 1, 'b', 2, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("Counters wrote % x, want % x", w.Bytes(), want)
	}
	r := NewReader("test", w.Bytes())
	got := r.Counters()
	if r.Done() != nil || len(got) != 2 || got["a"] != 1 || got["b"] != 2 {
		t.Fatalf("Counters read %v, %v", got, r.Err())
	}
	if got := NewReader("test", []byte{0, 0, 0, 0}).Counters(); got == nil {
		t.Fatal("empty section read as a nil map")
	}

	bad := map[string][]byte{
		"unsorted": {2, 0, 0, 0, 1, 'b', 1, 0, 0, 0, 0, 0, 0, 0, 1, 'a', 1, 0, 0, 0, 0, 0, 0, 0},
		"zero":     {1, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0},
		"empty":    {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, b := range bad {
		r := NewReader("test", b)
		r.Counters()
		if err := r.Done(); !errors.Is(err, ErrCanonical) {
			t.Errorf("%s: %v, want ErrCanonical", name, err)
		}
	}
}

// envelopeCause is the reference for Open's check order.
func envelopeCause(b []byte) error {
	switch {
	case len(b) < headerLen+trailerLen:
		return ErrTruncated
	case !bytes.Equal(b[:8], testFormat.Magic[:]):
		return ErrBadMagic
	case binary.LittleEndian.Uint64(b[len(b)-trailerLen:]) != Checksum(b[:len(b)-trailerLen]):
		return ErrChecksum
	case binary.LittleEndian.Uint32(b[8:]) != testFormat.Version:
		return ErrVersion
	}
	return nil
}

// FuzzOpen seals a fuzzed payload, optionally damages the stream, and
// opens it: Open must report exactly the first failing envelope check.
// On a clean open, a fuzzed script of reads runs against the Reader and
// an independent model; the latched error must be the model's first
// failure in stream order, and every read after it must return zero.
func FuzzOpen(f *testing.F) {
	w := NewWriter(0)
	w.U8(7)
	w.U32(2)
	w.Counters(map[string]uint64{"a": 1})
	w.Blob([]byte("blob"))
	f.Add(w.Bytes(), []byte{0, 1, 6, 3, 4}, uint16(0))
	f.Add(w.Bytes(), []byte{2, 2, 2, 5}, uint16(1|7<<2))
	f.Add([]byte{}, []byte{0}, uint16(2|3<<2))
	f.Add([]byte("xyz"), []byte{3 | 2<<3, 0}, uint16(3))

	f.Fuzz(func(t *testing.T, payload, ops []byte, damage uint16) {
		b := seal(payload)
		at := int(damage>>2) % len(b)
		switch damage & 3 {
		case 1:
			b[at] ^= 1 << (damage >> 13)
		case 2:
			b = b[:at]
		case 3:
			b = append(b, byte(damage>>8))
		}
		r, err := testFormat.Open(b)
		if want := envelopeCause(b); want != nil {
			var e *Error
			if r != nil || !errors.As(err, &e) || e.Cause != want {
				t.Fatalf("Open = %v, want %v", err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open rejected a sound envelope: %v", err)
		}

		body := b[:len(b)-trailerLen]
		off := headerLen
		var wantCause error
		wantOff := -1
		fail := func(cause error) {
			if wantCause == nil {
				wantCause, wantOff = cause, off
			}
		}
		take := func(n int) []byte {
			if wantCause != nil {
				return nil
			}
			if n < 0 || len(body)-off < n {
				fail(ErrTruncated)
				return nil
			}
			off += n
			return body[off-n : off]
		}
		u32 := func() uint64 {
			if v := take(4); v != nil {
				return uint64(binary.LittleEndian.Uint32(v))
			}
			return 0
		}
		for _, op := range ops {
			arg := int(op >> 3)
			var got, want uint64
			switch op & 7 {
			case 0:
				got = uint64(r.U8())
				if v := take(1); v != nil {
					want = uint64(v[0])
				}
			case 1:
				got, want = uint64(r.U32()), u32()
			case 2:
				got = r.U64()
				if v := take(8); v != nil {
					want = binary.LittleEndian.Uint64(v)
				}
			case 3:
				if g, w := r.Take(arg), take(arg); !bytes.Equal(g, w) || (g == nil) != (w == nil) {
					t.Fatalf("Take(%d) = %q, model %q", arg, g, w)
				}
			case 4:
				if g, w := r.Blob(), take(int(u32())); !bytes.Equal(g, w) || (g == nil) != (w == nil) {
					t.Fatalf("Blob = %q, model %q", g, w)
				}
			case 5:
				min := arg%16 + 1
				got = uint64(r.Count(min))
				n := u32()
				if n*uint64(min) > uint64(len(body)-off) {
					fail(ErrTruncated)
				}
				if wantCause == nil {
					want = n
				}
			default:
				r.Fail(ErrCanonical, "script")
				fail(ErrCanonical)
			}
			if got != want {
				t.Fatalf("op %d read %d, model %d", op&7, got, want)
			}
		}
		if off != len(body) {
			fail(ErrTrailing)
		}

		err = r.Done()
		if wantCause == nil {
			if err != nil {
				t.Fatalf("Done = %v, model read cleanly to the end", err)
			}
			return
		}
		var e *Error
		if !errors.As(err, &e) || e.Cause != wantCause || e.Off != wantOff || e.Format != "test" {
			t.Fatalf("latched %v, want the first failure %v at offset %d", err, wantCause, wantOff)
		}
	})
}
