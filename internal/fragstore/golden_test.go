package fragstore_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

var update = flag.Bool("update", false, "rewrite the golden store stream")

// TestGoldenStream pins the store bytes on a small store holding one
// accumulator entry and one straightened entry: the encoder must
// reproduce the committed stream exactly, and the committed stream must
// load drop-free and re-encode to itself. Run with -update to rewrite
// it.
func TestGoldenStream(t *testing.T) {
	s := fragstore.New()
	put(t, s, memSB(), accCfg(ildp.Modified, translate.SWPredRAS))
	put(t, s, aluSB(), straightCfg())

	path := filepath.Join("testdata", "golden.fs")
	got := s.Encode()
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
		t.Fatalf("Encode differs from %s (%d vs %d bytes)", path, len(got), len(want))
	}
	dec, rep, err := fragstore.Decode(want, fragstore.LoadOptions{})
	if err != nil {
		t.Fatalf("golden stream does not decode: %v", err)
	}
	if rep.Loaded != 2 || rep.Verified != 1 || rep.Skipped != 1 || rep.Dropped() != 0 {
		t.Fatalf("golden stream load report %v, want 1 verified + 1 skipped", rep)
	}
	if !bytes.Equal(dec.Encode(), want) {
		t.Fatal("golden stream does not re-encode to itself")
	}
}
