package faultinject

import (
	"strings"
	"testing"
)

// pinnedConfig enables every kind but shrink_cache, lists the ignored
// KindNone and an out-of-range kind, and caps the schedule at 300
// applied faults, so the cap bites inside the pinned window.
var pinnedConfig = Config{Seed: 0xC0FFEE, EntryRate: 4, TranslateRate: 2, MaxFaults: 300,
	Kinds: []Kind{KindNone, KindBitFlip, KindFailTranslate, KindPoisonTranslate,
		KindEvict, KindSpuriousTrap, Kind(9)}}

// pinnedDecisions is the VM plane's schedule for pinnedConfig: the first
// 500 EntryFault/TranslateFault decision pairs, one digit per decision
// (the Kind number, 0 = no fault), every fired decision applied.
var pinnedDecisions = []string{
	"0002000000500002030203035340030303030012020053500202000010020003521300000303500300030002030300020000",
	"0343030042000300030203400003005303030300020000030343020200030302000210001050000002020010020003421300",
	"0002000002400000030303021202000300021000021210001012400002520203020202000000101300000202030003000203",
	"0000030240400203105302100303020302000000001000430000001002030202030000404300034000034202035002000200",
	"5303000000004303020003030353520240530003400003520202000300000242025313130243020000001303000040025340",
	"0000000043000003100300020300400350000000020250030200430200025203131340000050000040030300020002020000",
	"0200020040531200000300030000530203101012130002000300401000020340430303120200000003120003020003035203",
	"1202100353430200030000020000035200400240000000020003020000000000000000000000000000000000000000000000",
	"0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
	"0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
}

// TestPinnedVMSchedule pins the VM fault schedule bit for bit: a change
// to the seeded stream, the rate draw, the pool choice, the enabled set
// or the MaxFaults cap changes this sequence. Chaos goldens and flight
// bundles replay it, so it must not move.
func TestPinnedVMSchedule(t *testing.T) {
	in := New(pinnedConfig)
	var b strings.Builder
	for i := 0; i < 500; i++ {
		for _, k := range []Kind{in.EntryFault(), in.TranslateFault()} {
			b.WriteByte('0' + byte(k))
			in.Applied(k)
		}
	}
	if got, want := b.String(), strings.Join(pinnedDecisions, ""); got != want {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("decision %d = %c, pinned %c", i, got[i], want[i])
			}
		}
	}
	const wantCounts = "bitflip=35 fail_translate=94 poison_translate=110 evict=34 spurious_trap=27"
	if got := in.Counts().String(); got != wantCounts {
		t.Errorf("Counts = %q, pinned %q", got, wantCounts)
	}
	if got := in.Decisions(); got != 1000 {
		t.Errorf("Decisions = %d, want 1000", got)
	}
}
