package prof

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden exporter files")

// goldenFeed is a fixed miniature run exercising every event kind: two
// fragments chained directly, a software-prediction miss into dispatch,
// a dispatch hit, a translation, an eviction, and a final exit to the
// VM. Timestamps and counts are hand-picked so the golden files read
// like a real (tiny) profile.
func goldenFeed(p *Profiler) {
	infoA := FragInfo{Insts: 10, SrcInsts: 7, Strands: 2, MaxStrand: 5}
	infoB := FragInfo{Insts: 6, SrcInsts: 4, Strands: 1, MaxStrand: 3}

	p.Translate(0x10040, 140)
	p.FragEnter(1, 0x10040, infoA, 0, 0)
	p.Retire(0, 2, 0)
	p.Retire(1, 4, 1)
	p.Retire(0, 6, 0)
	p.Chain(ChainDirect)
	p.FragEnter(2, 0x10080, infoB, 10, 7)
	p.Retire(1, 8, 1)
	p.Retire(0, 9, 0xFF)
	p.Chain(ChainSWPredMiss)
	p.EnterDispatch(16, 11)
	p.Retire(0, 12, 0xFF)
	p.Chain(ChainDispatchHit)
	p.FragEnter(1, 0x10040, infoA, 36, 11)
	p.Retire(1, 14, 1)
	p.Retire(0, 16, 0)
	p.Evict(2, 0x10080)
	p.FragExit(ExitVM, 46, 18)
	p.Retire(0, 18, 0xFF)
	p.Finish()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden; rerun with -update and review the diff\ngot:\n%s", name, got)
	}
}

func TestGoldenPerfetto(t *testing.T) {
	p := New(Config{})
	goldenFeed(p)

	var buf bytes.Buffer
	if err := p.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_trace.json", buf.Bytes())
}

func TestGoldenFolded(t *testing.T) {
	p := New(Config{})
	goldenFeed(p)

	pr := p.Profile()
	if err := pr.CheckConservation(p.Clock() + 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pr.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_folded.txt", buf.Bytes())
}

func TestGoldenHotTable(t *testing.T) {
	p := New(Config{})
	goldenFeed(p)

	var buf bytes.Buffer
	if err := p.Profile().WriteHotTable(&buf, 0); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_hot.txt", buf.Bytes())
}
