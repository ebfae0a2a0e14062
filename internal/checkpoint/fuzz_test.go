package checkpoint

import (
	"bytes"
	"errors"
	"testing"

	"github.com/ildp/accdbt/internal/codec"
	"github.com/ildp/accdbt/internal/mem"
)

// FuzzCheckpointDecode pins the decoder's safety contract: arbitrary
// bytes — truncated, bit-flipped, version-skewed, or hostile — must
// either decode into a State whose re-encoding reproduces the input
// exactly (the canonical-form identity), or fail with the package's
// typed *codec.Error. Never a panic, never an untyped error, never a partial
// result.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ACCDBTCP"))
	f.Add(Encode(&State{}))
	st := &State{
		PC:      0x2000,
		Halted:  true,
		Console: []byte("ok"),
		Counters: map[string]uint64{
			"stats.InterpInsts": 42,
			"stats.TransVInsts": 7,
		},
		Pages: map[uint64][mem.PageSize]byte{3: {1, 2, 3}},
	}
	st.Reg[5] = 0xdead_beef
	valid := Encode(st)
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // lost trailer byte
	f.Add(append(valid, 0))     // trailing garbage
	mut := append([]byte(nil), valid...)
	mut[9]++ // version skew (CRC now stale too)
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			if got != nil {
				t.Fatal("Decode returned both a state and an error")
			}
			var ce *codec.Error
			if !errors.As(err, &ce) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		if got == nil {
			t.Fatal("Decode returned neither state nor error")
		}
		if !bytes.Equal(Encode(got), data) {
			t.Fatalf("accepted stream is not canonical: Encode(Decode(b)) != b (%d bytes)", len(data))
		}
	})
}
