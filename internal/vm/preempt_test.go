package vm

import (
	"errors"
	"reflect"
	"testing"

	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/workload"
)

// TestStopHookPreciselyPreempts proves the Stop hook halts the run at a
// V-instruction boundary with a *PreemptError whose PC is the exact
// architected PC, matching ErrPreempted but not ErrBudget.
func TestStopHookPreciselyPreempts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HotThreshold = 5
	var v *VM
	cfg.Stop = func() bool { return v.Stats.TotalVInsts() >= 5_000 }
	v = New(mem.New(), cfg)
	if err := v.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
		t.Fatal(err)
	}
	err := v.Run(0)
	var pe *PreemptError
	if !errors.As(err, &pe) {
		t.Fatalf("Run returned %v (%T), want *PreemptError", err, err)
	}
	if !errors.Is(err, ErrPreempted) {
		t.Error("stop-hook preemption does not match ErrPreempted")
	}
	if errors.Is(err, ErrBudget) {
		t.Error("stop-hook preemption wrongly matches ErrBudget")
	}
	if pe.PC != v.CPU().PC {
		t.Errorf("PreemptError.PC = %#x, architected PC = %#x", pe.PC, v.CPU().PC)
	}
	if v.CPU().Halted {
		t.Error("preempted run reports Halted")
	}
	if v.Preemptions != 1 {
		t.Errorf("Preemptions = %d, want 1", v.Preemptions)
	}
	if v.Stats.TotalVInsts() < 5_000 {
		t.Errorf("preempted before the hook could have fired (%d V-insts)", v.Stats.TotalVInsts())
	}
}

// TestBudgetIsPreemption proves budget exhaustion surfaces as a
// *PreemptError matching BOTH ErrBudget (the cause, for existing
// callers) and ErrPreempted, with the precise V-PC attached.
func TestBudgetIsPreemption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HotThreshold = 5
	v := New(mem.New(), cfg)
	if err := v.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
		t.Fatal(err)
	}
	err := v.Run(10_000)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("Run returned %v, want ErrBudget match", err)
	}
	if !errors.Is(err, ErrPreempted) {
		t.Error("budget exhaustion does not match ErrPreempted")
	}
	var pe *PreemptError
	if !errors.As(err, &pe) {
		t.Fatalf("budget error %T is not a *PreemptError", err)
	}
	if pe.PC != v.CPU().PC {
		t.Errorf("PreemptError.PC = %#x, architected PC = %#x", pe.PC, v.CPU().PC)
	}
}

// TestResumeFromBudgetMatchesUninterrupted is the satellite fix's
// regression test: a run stopped by ErrBudget, checkpointed through the
// full encode/decode path, and resumed in a completely fresh VM (cold
// translation cache) must finish with the reference architected state
// and with cumulative instruction accounting intact.
func TestResumeFromBudgetMatchesUninterrupted(t *testing.T) {
	ref := refRun(t, torture)

	cfg := DefaultConfig()
	cfg.HotThreshold = 5
	v1 := New(mem.New(), cfg)
	if err := v1.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
		t.Fatal(err)
	}
	err := v1.Run(20_000)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("first segment: %v, want budget preemption", err)
	}

	st, derr := checkpoint.Decode(checkpoint.Encode(v1.Checkpoint()))
	if derr != nil {
		t.Fatalf("decoding own checkpoint: %v", derr)
	}
	v2 := New(mem.New(), cfg)
	v2.Restore(st)
	if v2.TCache().Len() != 0 {
		t.Errorf("restored VM has %d fragments; the cache must be cold", v2.TCache().Len())
	}
	if err := v2.Run(0); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	compareState(t, "resume", ref, v2, resultsAddrs())
	if got, want := v2.Stats.TotalVInsts(), ref.InstCount; got != want {
		t.Errorf("cumulative V-insts = %d, want %d (uninterrupted)", got, want)
	}
	if v2.Preemptions != 0 {
		t.Errorf("restored Preemptions = %d, want 0 (not checkpointed)", v2.Preemptions)
	}
}

// TestPreemptionInvisible preempts one VM per workload again and again
// and resumes that same VM each time, two ways: at V-instruction
// targets, and at every Nth Stop poll (which lands on chained and
// dispatched fragment entries too). The architected state and every
// Stats counter must equal an uninterrupted run's, both where a
// V-instruction budget runs out midway and at the end: preemption is
// the scheduler's event, not the guest's, so a flight bundle replayed
// without interruption must reproduce the counters a preempted session
// recorded.
func TestPreemptionInvisible(t *testing.T) {
	byTarget := func(step uint64) func(*VM) bool {
		target := step
		return func(v *VM) bool {
			if n := v.Stats.TotalVInsts(); n >= target {
				target = n + step
				return true
			}
			return false
		}
	}
	everyNth := func(n int) func(*VM) bool {
		polls := 0
		return func(*VM) bool { polls++; return polls%n == 0 }
	}
	preempted := map[string]uint64{}
	for _, name := range workload.Names() {
		spec, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		prog := spec.MustProgram()
		// run returns the VM at the end and its state where a budget of
		// 20 011 V-instructions ran out.
		run := func(stop func(*VM) bool) (*VM, *checkpoint.State) {
			cfg := DefaultConfig()
			var v *VM
			if stop != nil {
				cfg.Stop = func() bool { return stop(v) }
			}
			v = New(mem.New(), cfg)
			if err := v.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			budget := int64(20_011)
			var atBudget *checkpoint.State
			for {
				err := v.Run(budget)
				switch {
				case err == nil:
					return v, atBudget
				case errors.Is(err, ErrBudget):
					atBudget, budget = v.Checkpoint(), 0
				case !errors.Is(err, ErrPreempted):
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		ref, refBudget := run(nil)
		want := ref.Checkpoint()
		for _, way := range []struct {
			label string
			stop  func(*VM) bool
		}{
			{"v-inst targets", byTarget(3_000)},
			{"every 101st poll", everyNth(101)},
		} {
			got, gotBudget := run(way.stop)
			preempted[way.label] += got.Preemptions
			if got.Preemptions <= ref.Preemptions {
				t.Errorf("%s, %s: never preempted", name, way.label)
			}
			if !reflect.DeepEqual(gotBudget, refBudget) {
				t.Errorf("%s, %s: state where the budget ran out differs from the uninterrupted run", name, way.label)
			}
			if got.Stats != ref.Stats {
				t.Errorf("%s, %s (%d preemptions): Stats differ from the uninterrupted run\n got %+v\nwant %+v",
					name, way.label, got.Preemptions, got.Stats, ref.Stats)
			}
			if !reflect.DeepEqual(got.Checkpoint(), want) {
				t.Errorf("%s, %s: architected state differs from the uninterrupted run", name, way.label)
			}
		}
	}
	t.Logf("preemptions taken: %v", preempted)
}

// TestWatchdogBreaksLivelock corrupts every translation so translated
// code retires zero V-instructions (VCredit stripped): a hot
// self-chaining loop then spins forever inside the cache. The livelock
// watchdog must detect the stalled retirement, quarantine and
// invalidate the spinning fragment, and let the interpreter finish the
// program with the reference state.
func TestWatchdogBreaksLivelock(t *testing.T) {
	ref := refRun(t, torture)
	cfg := DefaultConfig()
	cfg.HotThreshold = 5
	cfg.WatchdogWindow = 20_000
	v := New(mem.New(), cfg)
	if err := v.LoadProgram(alphaasm.MustAssemble(torture)); err != nil {
		t.Fatal(err)
	}
	v.testMutateResult = func(res *translate.Result) {
		for i := range res.Insts {
			res.Insts[i].VCredit = 0
		}
	}
	if err := v.Run(0); err != nil {
		t.Fatalf("watchdogged run aborted: %v", err)
	}
	if v.Stats.WatchdogTrips == 0 {
		t.Fatal("livelock never tripped the watchdog")
	}
	if v.Stats.Quarantines == 0 {
		t.Error("watchdog tripped but quarantined nothing")
	}
	if want := int64(v.Stats.Recoveries()) * RecoveryCostPerEvent; v.Stats.RecoveryCost != want {
		t.Errorf("recovery cost %d, want %d (%d episodes incl. watchdog)",
			v.Stats.RecoveryCost, want, v.Stats.Recoveries())
	}
	compareState(t, "watchdog", ref, v, resultsAddrs())
}

// TestStatsCountersRoundTrip pins the reflection-based Stats flattening:
// a Stats with every field (including array elements) set to a distinct
// value must survive statsToCounters/statsFromCounters exactly,
// including negative signed values.
func TestStatsCountersRoundTrip(t *testing.T) {
	var s Stats
	s.InterpInsts = 1
	s.TransVInsts = 2
	s.Fragments = -3
	s.RecoveryCost = -1 << 40
	s.ClassCounts = [5]uint64{10, 11, 12, 13, 14}
	s.UsageDyn = [8]uint64{20, 0, 22, 0, 24, 0, 26, 0}
	s.UsageStatic = translate.UsageCounts{-1, 2, -3, 4, -5, 6, -7, 8}
	s.WatchdogTrips = 9

	var back Stats
	statsFromCounters(&back, statsToCounters(&s))
	if back != s {
		t.Errorf("Stats did not round-trip:\n got %+v\nwant %+v", back, s)
	}
}

// benchPreemptedVM runs gzip to a budget preemption, leaving a VM with
// a populated memory image and live Stats to checkpoint.
func benchPreemptedVM(b *testing.B) *VM {
	b.Helper()
	wl, err := workload.ByName("gzip", 1)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := wl.Program()
	if err != nil {
		b.Fatal(err)
	}
	v := New(mem.New(), DefaultConfig())
	if err := v.LoadProgram(prog); err != nil {
		b.Fatal(err)
	}
	if err := v.Run(100_000); !errors.Is(err, ErrBudget) {
		b.Fatalf("want budget preemption, got %v", err)
	}
	return v
}

// BenchmarkCheckpointSave measures the full save path: snapshotting the
// architected state and encoding it to the canonical binary form.
func BenchmarkCheckpointSave(b *testing.B) {
	v := benchPreemptedVM(b)
	data := checkpoint.Encode(v.Checkpoint())
	b.SetBytes(int64(len(data)))
	b.ReportMetric(float64(len(data)), "ckpt-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpoint.Encode(v.Checkpoint())
	}
}

// BenchmarkCheckpointRestore measures the full restore path: decoding
// the canonical bytes and applying them to a fresh VM (cold cache).
func BenchmarkCheckpointRestore(b *testing.B) {
	v := benchPreemptedVM(b)
	data := checkpoint.Encode(v.Checkpoint())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := checkpoint.Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		v2 := New(mem.New(), DefaultConfig())
		v2.Restore(st)
	}
}
