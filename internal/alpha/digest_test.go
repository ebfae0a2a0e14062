package alpha

import "testing"

// decodeDigest is the FNV-1a-style hash of every field of Decode(w) over
// the word sweep in TestDecodeDigest, as computed by the map-based
// decoder the flat tables replaced. Any change to what Decode returns
// for any swept word changes it.
const decodeDigest = 0xe03f2b62cf4f0350

// digestRaRb are the values swept through bits 16–25 (ra in the top
// five, rb in the bottom five): zeros, ones, r31 in each slot, and
// alternating patterns.
var digestRaRb = []uint32{0x000, 0x3FF, 0x01F, 0x3E0, 0x155, 0x2AA, 0x0A5}

// TestDecodeDigest pins the decoder: it hashes every field of Decode(w)
// for w = opc<<26 | rarb<<16 | x, over all 64 opcodes, every low
// 16-bit x and the digestRaRb patterns.
func TestDecodeDigest(t *testing.T) {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * prime }
	for opc := uint32(0); opc < 64; opc++ {
		for _, rarb := range digestRaRb {
			for x := uint32(0); x < 1<<16; x++ {
				d := Decode(Word(opc<<26 | rarb<<16 | x))
				mix(uint64(d.Raw))
				mix(uint64(d.Op))
				mix(uint64(d.Format))
				mix(uint64(d.Ra))
				mix(uint64(d.Rb))
				mix(uint64(d.Rc))
				mix(uint64(uint32(d.Disp)))
				mix(uint64(d.Lit))
				if d.UseLit {
					mix(1)
				} else {
					mix(0)
				}
				mix(uint64(d.PALFn))
				mix(uint64(d.Hint))
			}
		}
	}
	if h != decodeDigest {
		t.Fatalf("Decode digest = %#x, want %#x", h, uint64(decodeDigest))
	}
}
