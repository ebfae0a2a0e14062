package checkpoint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/ildp/accdbt/internal/mem"
)

var update = flag.Bool("update", false, "rewrite the golden checkpoint stream")

// goldenState exercises every section of the format: registers, all
// three flag bits, a console, counters (one zero-valued, which Encode
// drops), and two pages out of insertion order.
func goldenState() *State {
	st := &State{
		PC:         0x1_2340,
		Halted:     true,
		ExitStatus: 3,
		InstCount:  987_654,
		LockFlag:   true,
		LockAddr:   0x8_0040,
		MemStrict:  true,
		Console:    []byte("golden\n"),
		Counters: map[string]uint64{
			"stats.InterpInsts":  1000,
			"stats.TransVInsts":  250,
			"stats.RecoveryCost": 17,
			"stats.Quarantines":  0,
		},
		Pages: map[uint64][mem.PageSize]byte{},
	}
	for i := range st.Reg {
		st.Reg[i] = uint64(i)*0x0102_0304_0506 + 1
	}
	var pg [mem.PageSize]byte
	for i := range pg {
		pg[i] = byte(i*13 + 5)
	}
	st.Pages[0x40] = pg
	st.Pages[0x12] = [mem.PageSize]byte{0: 0xAA, mem.PageSize - 1: 0x55}
	return st
}

// TestGoldenStream pins the checkpoint bytes: the encoder must
// reproduce the committed stream exactly, and the committed stream must
// decode and re-encode to itself. Run with -update to rewrite it.
func TestGoldenStream(t *testing.T) {
	path := filepath.Join("testdata", "golden.ckpt")
	got := Encode(goldenState())
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode(goldenState()) differs from %s (%d vs %d bytes)", path, len(got), len(want))
	}
	st, err := Decode(want)
	if err != nil {
		t.Fatalf("golden stream does not decode: %v", err)
	}
	if !bytes.Equal(Encode(st), want) {
		t.Fatal("golden stream does not re-encode to itself")
	}
	if !st.Halted || !st.LockFlag || !st.MemStrict || len(st.Pages) != 2 || len(st.Counters) != 3 {
		t.Fatalf("golden stream decoded to the wrong state: %+v", st)
	}
}
