package flight

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/ildp/accdbt/internal/codec"
)

// FuzzFlightDecode pins the bundle decoder's safety contract: arbitrary
// bytes either decode into a Bundle whose re-encoding reproduces the
// input exactly, or fail with a typed *codec.Error — never a panic,
// never an untyped error, never a partial bundle.
func FuzzFlightDecode(f *testing.F) {
	golden := goldenBundles()
	for _, kind := range []string{KindTrap, KindResource, KindBudget, KindCrash, KindIOFault, KindDone, KindError} {
		for _, name := range []string{"full", "nofaults"} {
			b := *golden[name]
			b.Kind = kind
			f.Add(Encode(&b))
		}
	}
	valid := Encode(golden["full"])
	f.Add(valid[:len(valid)-1])          // lost trailer byte
	f.Add(valid[:len(valid)/2])          // torn mid-stream
	f.Add(append(bytes.Clone(valid), 0)) // trailing garbage
	stale := bytes.Clone(valid)
	stale[len(stale)/2] ^= 0x40 // payload flip, CRC now stale
	f.Add(stale)
	// A structurally bad but CRC-clean stream, so the fuzzer starts past
	// the envelope: an empty kind.
	empty := bytes.Clone(valid)
	empty[12] = 0 // the kind length, right after magic and version
	binary.LittleEndian.PutUint64(empty[len(empty)-8:], codec.Checksum(empty[:len(empty)-8]))
	f.Add(empty)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			var e *codec.Error
			if got != nil || !errors.As(err, &e) || e.Format != "flight" {
				t.Fatalf("Decode = (%v, %T %v), want nil and a flight *codec.Error", got, err, err)
			}
			return
		}
		if !bytes.Equal(Encode(got), data) {
			t.Fatalf("accepted stream is not canonical: Encode(Decode(b)) != b (%d bytes)", len(data))
		}
	})
}
