package faultinject_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/iofs"
)

// TestScheduleDeterminism checks that both planes' schedules are pure
// functions of the seed: a replay draws the same faults at the same
// decision points, and another seed draws different ones.
func TestScheduleDeterminism(t *testing.T) {
	vmPlane := func(seed uint64) string {
		in := faultinject.New(faultinject.Config{Seed: seed, EntryRate: 4, TranslateRate: 2})
		var b strings.Builder
		for i := 0; i < 500; i++ {
			fmt.Fprintln(&b, in.EntryFault(), in.TranslateFault())
		}
		return b.String()
	}
	name := filepath.Join(t.TempDir(), "f.bin")
	diskPlane := func(seed uint64) string {
		os.Remove(name)
		fsys := iofs.NewFaulty(iofs.OS{}, iofs.Config{Seed: seed, Rate: 3})
		var b strings.Builder
		for i := 0; i < 200; i++ {
			werr := fsys.WriteFile(name, []byte("payload payload payload"), 0o644)
			data, rerr := fsys.ReadFile(name)
			fmt.Fprintf(&b, "%v|%v|%s\n", werr, rerr, data)
		}
		fmt.Fprintln(&b, fsys.Counts(), fsys.Decisions())
		return b.String()
	}
	for _, plane := range []struct {
		name  string
		draw  func(uint64) string
		seeds [2]uint64
	}{
		{"vm", vmPlane, [2]uint64{12345, 54321}},
		{"disk", diskPlane, [2]uint64{42, 43}},
	} {
		a := plane.draw(plane.seeds[0])
		if b := plane.draw(plane.seeds[0]); a != b {
			t.Errorf("%s plane: seed %d replayed differently", plane.name, plane.seeds[0])
		}
		if c := plane.draw(plane.seeds[1]); a == c {
			t.Errorf("%s plane: seeds %d and %d drew identical schedules", plane.name, plane.seeds[0], plane.seeds[1])
		}
	}
}

func TestKindFiltering(t *testing.T) {
	in := faultinject.New(faultinject.Config{Seed: 7, EntryRate: 2, TranslateRate: 2,
		Kinds: []faultinject.Kind{faultinject.KindBitFlip}})
	for i := 0; i < 2000; i++ {
		if k := in.EntryFault(); k != faultinject.KindNone && k != faultinject.KindBitFlip {
			t.Fatalf("entry decision %d produced filtered-out kind %v", i, k)
		}
		if k := in.TranslateFault(); k != faultinject.KindNone {
			t.Fatalf("translate decision %d fired %v with no translate kinds enabled", i, k)
		}
	}
}

// TestMaxFaultsCap checks the shared cap on both planes: once MaxFaults
// faults are applied no decision fires, and decisions are still counted.
func TestMaxFaultsCap(t *testing.T) {
	in := faultinject.New(faultinject.Config{Seed: 9, EntryRate: 2, MaxFaults: 5})
	fired := 0
	for i := 0; i < 5000; i++ {
		if k := in.EntryFault(); k != faultinject.KindNone {
			in.Applied(k)
			fired++
		}
	}
	if fired != 5 || in.Counts().Total() != 5 || in.Decisions() != 5000 {
		t.Errorf("vm plane: fired %d, applied %d in %d decisions; want 5, 5 in 5000",
			fired, in.Counts().Total(), in.Decisions())
	}

	name := filepath.Join(t.TempDir(), "f")
	fsys := iofs.NewFaulty(iofs.OS{}, iofs.Config{Seed: 3, Rate: 1, MaxFaults: 2})
	for i := 0; i < 50; i++ {
		fsys.WriteFile(name, []byte("x"), 0o644)
	}
	if fsys.Counts().Total() != 2 || fsys.Decisions() != 50 {
		t.Errorf("disk plane: applied %d in %d decisions; want 2 in 50",
			fsys.Counts().Total(), fsys.Decisions())
	}
}

// TestKindNameRoundTrip checks both planes' kind tables and the one
// kind-list parser the CLIs use.
func TestKindNameRoundTrip(t *testing.T) {
	checkTable(t, faultinject.Kinds, "faultinject", 6, "bitflip, evict",
		faultinject.Counts[faultinject.Kind]{0, 3, 0, 0, 1}, "bitflip=3 evict=1")
	checkTable(t, iofs.Kinds, "iofs", 5, "enospc, torn_write",
		iofs.Counts{0, 3, 0, 1}, "enospc=3 torn_write=1")
}

func checkTable[K faultinject.KindType](t *testing.T, tbl *faultinject.Table[K], plane string,
	n int, pair string, counts faultinject.Counts[K], rendered string) {
	t.Helper()
	all := tbl.All()
	if len(all) != n {
		t.Errorf("%s: %d injectable kinds, want %d", plane, len(all), n)
	}
	for _, k := range all {
		if got, err := tbl.ByName(k.String()); err != nil || got != k {
			t.Errorf("%s: ByName(%q) = %v, %v; want %v", plane, k, got, err, k)
		}
	}
	for _, bad := range []string{"meteor_strike", "none", "all", ""} {
		if _, err := tbl.ByName(bad); err == nil || !strings.HasPrefix(err.Error(), plane+": unknown fault kind") {
			t.Errorf("%s: ByName(%q) error = %v", plane, bad, err)
		}
	}
	if got := K(200).String(); got != "kind(200)" {
		t.Errorf("%s: out-of-range kind renders %q", plane, got)
	}
	for _, list := range []string{"", "all"} {
		if kinds, err := tbl.Parse(list); kinds != nil || err != nil {
			t.Errorf("%s: Parse(%q) = %v, %v; want every kind (nil)", plane, list, kinds, err)
		}
	}
	names := strings.Split(pair, ", ")
	if kinds, err := tbl.Parse(pair); err != nil || len(kinds) != 2 ||
		kinds[0].String() != names[0] || kinds[1].String() != names[1] {
		t.Errorf("%s: Parse(%q) = %v, %v", plane, pair, kinds, err)
	}
	for _, list := range []string{"none", names[0] + ",bogus", "all," + names[0], names[0] + ","} {
		if kinds, err := tbl.Parse(list); err == nil {
			t.Errorf("%s: Parse(%q) accepted %v", plane, list, kinds)
		}
	}
	if got := counts.String(); got != rendered {
		t.Errorf("%s: Counts.String = %q, want %q", plane, got, rendered)
	}
	if got := (faultinject.Counts[K]{}).String(); got != "none" {
		t.Errorf("%s: empty Counts.String = %q, want \"none\"", plane, got)
	}
}
