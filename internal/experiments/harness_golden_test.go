package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/vm"
)

var update = flag.Bool("update", false, "rewrite testdata/harness.golden")

// TestHarnessGolden pins what the differential harnesses do, not only
// the invariants they check: the fault schedule each chaos seed applies
// and the Stats it leaves, the kill schedule and segment accounting of
// each kill-and-resume seed, and the cycles of one timed run of each.
// A change to how the harnesses build, boot or finish their machines
// that shifts any of these shows here even when every run still
// matches its oracle. Run with -update to rewrite
// testdata/harness.golden.
func TestHarnessGolden(t *testing.T) {
	wl := chaosWorkload(t)
	machines := []Machine{Original, Straightened, ILDPBasic, ILDPModified}
	var b strings.Builder

	for s := 0; s < 8; s++ {
		seed := uint64(1000 + s)
		m := machines[s%len(machines)]
		out, err := RunChaos(ChaosSpec{
			Workload: wl, Machine: m, Seed: seed,
			EntryRate: 16, TranslateRate: 4,
			MaxV: 20_000_000,
		})
		if err != nil {
			t.Fatalf("chaos seed %d on %v: %v", seed, m, err)
		}
		fmt.Fprintf(&b, "== chaos seed %d %v\n", seed, m)
		for _, k := range faultinject.AllKinds() {
			fmt.Fprintf(&b, "fault %v %d\n", k, out.Faults[k])
		}
		fmt.Fprintf(&b, "decisions %d\nmismatch %q\nstats %+v\n", out.Decisions, out.Mismatch, out.VM)
	}

	for s := 0; s < 8; s++ {
		seed := uint64(5000 + s)
		m := machines[s%len(machines)]
		out, err := RunKillResume(KillResumeSpec{
			Workload: wl, Machine: m, Seed: seed, Kills: 3,
			MaxV: 20_000_000,
		})
		if err != nil {
			t.Fatalf("kill-resume seed %d on %v: %v", seed, m, err)
		}
		fmt.Fprintf(&b, "== kill-resume seed %d %v\n", seed, m)
		fmt.Fprintf(&b, "targets %v\nkills %d\nsegments %d\nckpt-bytes %d\nmismatch %q\nstats %+v\n",
			out.KillTargets, out.Kills, out.Segments, out.CkptBytes, out.Mismatch, out.VM)
	}

	chaosOut, err := RunChaos(ChaosSpec{
		Workload: wl, Machine: ILDPModified, Seed: 424242,
		EntryRate: 8, TranslateRate: 2,
		MaxV: 20_000_000, Timing: true, Prof: prof.New(prof.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== timed chaos seed 424242 %v\ncycles %d\n", ILDPModified, chaosOut.Timing.Cycles)

	// Each timed segment carries its own profiler, whose cycle total
	// equals its timing model's (RunKillResume checks conservation), so
	// the profilers Tune sees give the per-segment cycles.
	var segs []*prof.Profiler
	krOut, err := RunKillResume(KillResumeSpec{
		Workload: wl, Machine: Straightened, Seed: 7100, Kills: 2,
		MaxV: 20_000_000, Timing: true,
		Tune: func(cfg *vm.Config) { segs = append(segs, cfg.Prof) },
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== timed kill-resume seed 7100 %v\nkills %d\n", Straightened, krOut.Kills)
	for i, p := range segs {
		fmt.Fprintf(&b, "segment %d cycles %d\n", i+1, p.Profile().TotalCycles)
	}

	got := b.String()
	path := filepath.Join("testdata", "harness.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("harness golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("harness golden differs in length: got %d lines, want %d", len(gl), len(wl))
	}
}
