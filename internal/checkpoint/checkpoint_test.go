package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/ildp/accdbt/internal/codec"
	"github.com/ildp/accdbt/internal/mem"
)

// sampleState builds a representative state: registers, console bytes,
// several counters, and a sparse memory image including an all-zero
// page (mapped-ness is architected in strict mode, so zero pages are
// kept).
func sampleState() *State {
	st := &State{
		PC:         0x1_2000,
		Halted:     false,
		ExitStatus: 0,
		InstCount:  123_456,
		LockFlag:   true,
		LockAddr:   0x8_0040,
		MemStrict:  false,
		Console:    []byte("hello\n"),
		Counters: map[string]uint64{
			"stats.InterpInsts":   98_765,
			"stats.TransVInsts":   24_691,
			"stats.RecoveryCost":  150,
			"stats.ClassCounts.0": 7,
		},
		Pages: map[uint64][mem.PageSize]byte{},
	}
	for i := range st.Reg {
		st.Reg[i] = uint64(i) * 0x0101_0101
	}
	var pg [mem.PageSize]byte
	for i := range pg {
		pg[i] = byte(i * 7)
	}
	st.Pages[0x12] = pg
	st.Pages[0x80] = [mem.PageSize]byte{} // all-zero but mapped
	st.Pages[0x13] = pg
	return st
}

func TestRoundTrip(t *testing.T) {
	st := sampleState()
	enc := Encode(st)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.PC != st.PC || got.Reg != st.Reg || got.Halted != st.Halted ||
		got.ExitStatus != st.ExitStatus || got.InstCount != st.InstCount ||
		got.LockFlag != st.LockFlag || got.LockAddr != st.LockAddr ||
		got.MemStrict != st.MemStrict {
		t.Errorf("scalar state did not round-trip: got %+v", got)
	}
	if !bytes.Equal(got.Console, st.Console) {
		t.Errorf("console: got %q, want %q", got.Console, st.Console)
	}
	if len(got.Counters) != len(st.Counters) {
		t.Fatalf("counters: got %d, want %d", len(got.Counters), len(st.Counters))
	}
	for name, v := range st.Counters {
		if got.Counters[name] != v {
			t.Errorf("counter %q: got %d, want %d", name, got.Counters[name], v)
		}
	}
	if len(got.Pages) != len(st.Pages) {
		t.Fatalf("pages: got %d, want %d", len(got.Pages), len(st.Pages))
	}
	for pn, pg := range st.Pages {
		if got.Pages[pn] != pg {
			t.Errorf("page %#x did not round-trip", pn)
		}
	}
}

// TestDeterministic encodes the same state twice (and a map-identical
// copy) and requires identical bytes — map iteration order must never
// leak into the stream.
func TestDeterministic(t *testing.T) {
	st := sampleState()
	a := Encode(st)
	for i := 0; i < 8; i++ {
		if !bytes.Equal(a, Encode(st)) {
			t.Fatal("repeated Encode of the same state differs")
		}
	}
	// A decoded copy re-encodes identically (canonical form).
	dec, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, Encode(dec)) {
		t.Fatal("Encode(Decode(b)) != b")
	}
}

// TestZeroCountersOmitted: zero-valued counters must not change the
// encoding, so accounting fields that happen to be zero cost nothing
// and states compare equal bytewise.
func TestZeroCountersOmitted(t *testing.T) {
	a := sampleState()
	b := sampleState()
	b.Counters["stats.Quarantines"] = 0
	if !bytes.Equal(Encode(a), Encode(b)) {
		t.Fatal("zero-valued counter changed the encoding")
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc := Encode(sampleState())
	for n := 0; n < len(enc); n++ {
		st, err := Decode(enc[:n])
		if st != nil || err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded", n, len(enc))
		}
		var ce *codec.Error
		if !errors.As(err, &ce) {
			t.Fatalf("Decode of %d bytes returned untyped error %T: %v", n, err, err)
		}
	}
}

// TestDecodeBitFlips flips one bit in each of a spread of positions;
// every flip must fail cleanly (the CRC covers the whole payload, and
// flips in the trailer corrupt the CRC itself).
func TestDecodeBitFlips(t *testing.T) {
	enc := Encode(sampleState())
	step := len(enc)/97 + 1
	for pos := 0; pos < len(enc); pos += step {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 1 << bit
			st, err := Decode(mut)
			if st != nil || err == nil {
				t.Fatalf("flip at byte %d bit %d decoded successfully", pos, bit)
			}
			var ce *codec.Error
			if !errors.As(err, &ce) {
				t.Fatalf("flip at byte %d bit %d: untyped error %v", pos, bit, err)
			}
			if pos >= 8 && !errors.Is(err, codec.ErrChecksum) && !errors.Is(err, codec.ErrBadMagic) {
				t.Fatalf("flip at byte %d bit %d: want checksum failure, got %v", pos, bit, err)
			}
		}
	}
}

// TestDecodeVersionSkew rewrites the version field (fixing up the CRC)
// and requires a clean codec.ErrVersion.
func TestDecodeVersionSkew(t *testing.T) {
	enc := Encode(sampleState())
	mut := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(mut[8:], Version+1)
	payload := mut[:len(mut)-8]
	binary.LittleEndian.PutUint64(mut[len(mut)-8:], codec.Checksum(payload))
	_, err := Decode(mut)
	if !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("version skew: got %v, want codec.ErrVersion", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	enc := Encode(sampleState())
	mut := append([]byte(nil), enc...)
	mut[0] = 'X'
	if _, err := Decode(mut); !errors.Is(err, codec.ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want codec.ErrBadMagic", err)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	enc := Encode(sampleState())
	mut := append(append([]byte(nil), enc...), 0)
	if _, err := Decode(mut); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestDecodeNonCanonical hand-builds streams violating the canonical
// rules and requires codec.ErrCanonical for each.
func TestDecodeNonCanonical(t *testing.T) {
	// Encode a single-counter state, then splice a two-entry counter
	// section in reverse order in its place and fix the CRC.
	one := &State{Counters: map[string]uint64{"b": 1}}
	base := Encode(one)
	payload := base[:len(base)-8]
	// Locate the counter section: it is 4 (count) + 1 + 1 + 8 bytes
	// before the page count (4) at the end of the payload.
	ctrOff := len(payload) - 4 - (1 + 1 + 8) - 4
	var spliced []byte
	spliced = append(spliced, payload[:ctrOff]...)
	spliced = binary.LittleEndian.AppendUint32(spliced, 2)
	entry := func(name string, v uint64) {
		spliced = append(spliced, byte(len(name)))
		spliced = append(spliced, name...)
		spliced = binary.LittleEndian.AppendUint64(spliced, v)
	}
	entry("b", 1)
	entry("a", 1) // out of order
	spliced = binary.LittleEndian.AppendUint32(spliced, 0)
	spliced = binary.LittleEndian.AppendUint64(spliced, codec.Checksum(spliced))
	if _, err := Decode(spliced); !errors.Is(err, codec.ErrCanonical) {
		t.Fatalf("unsorted counters: got %v, want codec.ErrCanonical", err)
	}
}
