package faultinject

import (
	"testing"

	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
)

// drawSchedule replays n entry and translate decisions and returns them.
func drawSchedule(cfg Config, n int) []Kind {
	in := New(cfg)
	out := make([]Kind, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, in.EntryFault(), in.TranslateFault())
	}
	return out
}

func TestScheduleDeterminism(t *testing.T) {
	cfg := Config{Seed: 12345, EntryRate: 4, TranslateRate: 2}
	a := drawSchedule(cfg, 500)
	b := drawSchedule(cfg, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between replays: %v vs %v", i, a[i], b[i])
		}
	}
	c := drawSchedule(Config{Seed: 54321, EntryRate: 4, TranslateRate: 2}, 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestKindFiltering(t *testing.T) {
	in := New(Config{Seed: 7, EntryRate: 2, TranslateRate: 2,
		Kinds: []Kind{KindBitFlip}})
	for i := 0; i < 2000; i++ {
		if k := in.EntryFault(); k != KindNone && k != KindBitFlip {
			t.Fatalf("entry decision %d produced filtered-out kind %v", i, k)
		}
		if k := in.TranslateFault(); k != KindNone {
			t.Fatalf("translate decision %d fired %v with no translate kinds enabled", i, k)
		}
	}
}

func TestMaxFaultsCap(t *testing.T) {
	in := New(Config{Seed: 9, EntryRate: 2, MaxFaults: 5})
	fired := 0
	for i := 0; i < 5000; i++ {
		if k := in.EntryFault(); k != KindNone {
			in.Applied(k)
			fired++
		}
	}
	if fired != 5 {
		t.Errorf("applied %d faults, cap is 5", fired)
	}
	if got := in.Counts().Total(); got != 5 {
		t.Errorf("Counts().Total() = %d, want 5", got)
	}
}

func TestKindNameRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		got, err := KindByName(k.String())
		if err != nil {
			t.Errorf("KindByName(%q): %v", k, err)
		}
		if got != k {
			t.Errorf("KindByName(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := KindByName("meteor_strike"); err == nil {
		t.Error("KindByName accepted an unknown name")
	}
	if _, err := KindByName("none"); err == nil {
		t.Error("KindByName accepted the non-injectable \"none\"")
	}
}

func TestCorruptFragmentAlwaysChanges(t *testing.T) {
	in := New(Config{Seed: 3})
	for trial := 0; trial < 200; trial++ {
		f := &tcache.Fragment{Result: translate.Result{
			Insts: []ildp.Inst{
				{Kind: ildp.KindSetVPC, VAddr: 0x1000},
				{Kind: ildp.KindALU, VAddr: 0x1004, Disp: 8, VPC: 0x1004},
				{Kind: ildp.KindBranch, VAddr: 0x1008, VPC: 0x1008},
			},
			PEI: []uint64{0x1004},
		}}
		before := append([]ildp.Inst(nil), f.Insts...)
		beforePEI := append([]uint64(nil), f.PEI...)
		if !in.CorruptFragment(f) {
			t.Fatalf("trial %d: CorruptFragment declined a corruptible fragment", trial)
		}
		changed := len(f.PEI) != len(beforePEI)
		for i := range beforePEI {
			if f.PEI[i] != beforePEI[i] {
				changed = true
			}
		}
		for i := range before {
			if f.Insts[i] != before[i] {
				changed = true
			}
		}
		if !changed {
			t.Fatalf("trial %d: CorruptFragment reported a change but nothing differs", trial)
		}
	}
}

func TestCorruptResultSkipsStraightened(t *testing.T) {
	in := New(Config{Seed: 3})
	res := &translate.Result{Straightened: true,
		Insts: []ildp.Inst{{Kind: ildp.KindALU}}}
	if in.CorruptResult(res) {
		t.Error("CorruptResult poisoned a straightened fragment the verifier cannot reject")
	}
}
