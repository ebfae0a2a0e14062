package flight

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

var update = flag.Bool("update", false, "rewrite the golden bundle streams")

// goldenBundles are fixed, hand-built bundles covering every section of
// the format: "full" carries a fault schedule, a program image, a
// checkpoint, counters, and events; "nofaults" has chaos off and a
// checkpoint as its only state source.
func goldenBundles() map[string]*Bundle {
	ckpt := checkpoint.Encode(&checkpoint.State{
		PC:       0x2000,
		Console:  []byte("ok"),
		Counters: map[string]uint64{"stats.InterpInsts": 42},
	})
	cfg := VMConfig{
		Form:           ildp.Modified,
		NumAcc:         8,
		Chain:          translate.SWPredRAS,
		Straighten:     false,
		FuseMemOps:     true,
		TCacheBytes:    1 << 20,
		MaxPages:       64,
		Verify:         true,
		SemCheck:       true,
		Paranoid:       false,
		SelfHeal:       true,
		RetryBudget:    3,
		WatchdogWindow: 1 << 16,
		HotThreshold:   50,
		MaxSuperblock:  200,
		RASSize:        16,
	}
	return map[string]*Bundle{
		"full": {
			Kind:   KindResource,
			VPC:    0x1_2340,
			Cause:  "memory resource fault at 0x900000",
			Config: cfg,
			Faults: &faultinject.Config{
				Seed: 7, EntryRate: 16, TranslateRate: 4, MaxFaults: 3,
				Kinds: []faultinject.Kind{faultinject.KindBitFlip, 0},
			},
			Budget:     100_000,
			Program:    []byte("\x7fimage bytes"),
			Checkpoint: ckpt,
			Counters: map[string]uint64{
				"stats.InterpInsts": 1234,
				"stats.StoreHits":   9,
				"stats.Traps":       1,
				"stats.Zero":        0,
			},
			Events: []string{"session 1 tenant \"t\" name \"membomb\"", "failure: resource"},
		},
		"nofaults": {
			Kind:       KindBudget,
			VPC:        0x2000,
			Cause:      "v-instruction budget exhausted",
			Config:     VMConfig{Form: ildp.Basic, NumAcc: 4, Chain: translate.NoPred, Straighten: true},
			Checkpoint: ckpt,
			Counters:   map[string]uint64{"stats.InterpInsts": 42},
		},
	}
}

// TestGoldenBundles pins the bundle bytes: each golden bundle must
// encode to its committed stream exactly, and each committed stream must
// decode and re-encode to itself. Run with -update to rewrite them.
func TestGoldenBundles(t *testing.T) {
	for name, b := range goldenBundles() {
		path := filepath.Join("testdata", "golden-"+name+".bundle")
		got := Encode(b)
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
			t.Fatalf("%s: Encode differs from %s (%d vs %d bytes)", name, path, len(got), len(want))
		}
		dec, err := Decode(want)
		if err != nil {
			t.Fatalf("%s: golden stream does not decode: %v", name, err)
		}
		if !bytes.Equal(Encode(dec), want) {
			t.Fatalf("%s: golden stream does not re-encode to itself", name)
		}
		if (dec.Faults != nil) != (b.Faults != nil) || dec.Config != b.Config {
			t.Fatalf("%s: golden stream decoded to the wrong bundle: %+v", name, dec)
		}
	}
}
