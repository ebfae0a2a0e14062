package flight

import (
	"bytes"
	"errors"
	"testing"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/codec"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// testBundle records a real governed failure: the membomb guest run
// under a page cap until its resource trap.
func testBundle(t *testing.T, maxPages int, faults *faultinject.Config) (*Bundle, *vm.VM) {
	t.Helper()
	spec, err := workload.ByName("membomb", 1)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.MustProgram()
	cfg := vm.DefaultConfig()
	cfg.MaxPages = maxPages
	cfg.HotThreshold = 4
	if faults != nil {
		cfg.Faults = faults
		cfg.Verify = true
		cfg.Paranoid = true
		cfg.SelfHeal = true
	}
	m := mem.New()
	v := vm.New(m, cfg)
	if err := v.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	runErr := v.Run(0)
	kind, failure := Classify(runErr)
	if !failure {
		t.Fatalf("membomb did not fail: %v", runErr)
	}
	var progBuf bytes.Buffer
	if err := prog.Save(&progBuf); err != nil {
		t.Fatal(err)
	}
	return &Bundle{
		Kind:     kind,
		VPC:      v.CPU().PC,
		Cause:    runErr.Error(),
		Config:   CaptureConfig(cfg),
		Faults:   faults,
		Program:  progBuf.Bytes(),
		Counters: v.Checkpoint().Counters,
		Events:   []string{"test membomb", "governed at " + runErr.Error()},
	}, v
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	b, _ := testBundle(t, 64, &faultinject.Config{
		Seed: 7, Kinds: []faultinject.Kind{faultinject.KindBitFlip}, MaxFaults: 3,
	})
	enc := Encode(b)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Kind != b.Kind || got.VPC != b.VPC || got.Cause != b.Cause {
		t.Fatalf("header round trip: %+v", got)
	}
	if got.Config != b.Config {
		t.Fatalf("config round trip: %+v vs %+v", got.Config, b.Config)
	}
	if got.Faults == nil || got.Faults.Seed != 7 || len(got.Faults.Kinds) != 1 ||
		got.Faults.Kinds[0] != faultinject.KindBitFlip || got.Faults.MaxFaults != 3 {
		t.Fatalf("faults round trip: %+v", got.Faults)
	}
	if !bytes.Equal(got.Program, b.Program) {
		t.Fatal("program bytes diverge")
	}
	if len(got.Events) != 2 || got.Events[0] != b.Events[0] {
		t.Fatalf("events round trip: %v", got.Events)
	}
	for name, v := range b.Counters {
		if v != 0 && got.Counters[name] != v {
			t.Fatalf("counter %s: %d vs %d", name, got.Counters[name], v)
		}
	}
	// Canonical: Encode(Decode(enc)) == enc.
	if !bytes.Equal(Encode(got), enc) {
		t.Fatal("Encode(Decode(b)) != b")
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	b, _ := testBundle(t, 64, nil)
	enc := Encode(b)

	if _, err := Decode([]byte("NOTABNDL" + string(enc[8:]))); !errors.Is(err, codec.ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := Decode(enc[:10]); !errors.Is(err, codec.ErrTruncated) {
		t.Errorf("truncated: %v", err)
	}
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/2] ^= 1
	if _, err := Decode(flipped); !errors.Is(err, codec.ErrChecksum) {
		t.Errorf("bit flip: %v", err)
	}
	trailing := append(append([]byte(nil), enc...), 0xFF)
	if _, err := Decode(trailing); err == nil {
		t.Error("trailing byte accepted")
	}
	var e *codec.Error
	if _, err := Decode(flipped); !errors.As(err, &e) {
		t.Error("decode failure is not a *codec.Error")
	}
}

// TestReplayResourceKill is the acceptance criterion: a recorded
// resource-governance failure replays to the bit-identical failure —
// same kind, same V-PC, same counters.
func TestReplayResourceKill(t *testing.T) {
	b, _ := testBundle(t, 64, nil)
	if b.Kind != KindResource {
		t.Fatalf("bundle kind = %s, want %s", b.Kind, KindResource)
	}
	dec, err := Decode(Encode(b))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(dec)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := res.Matches(dec); err != nil {
		t.Fatalf("replay diverges: %v", err)
	}
}

// TestReplayFromCheckpoint replays a failing segment that starts from a
// mid-run checkpoint, the serve-shaped bundle: run the bomb for a
// budget-bounded prefix, checkpoint, then record the failing remainder.
func TestReplayFromCheckpoint(t *testing.T) {
	spec, err := workload.ByName("membomb", 1)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.MustProgram()
	cfg := vm.DefaultConfig()
	cfg.MaxPages = 96
	cfg.HotThreshold = 4

	// Segment 1: run a prefix, preempted by budget before the bomb loop
	// turns hot (a hot loop self-chains past the outer-loop budget
	// check, so the prefix must stay interpreted).
	v1 := vm.New(mem.New(), cfg)
	if err := v1.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if err := v1.Run(20); !errors.Is(err, vm.ErrBudget) {
		t.Fatalf("prefix run: %v", err)
	}
	seg := checkpoint.Encode(v1.Checkpoint())

	// Segment 2: restore and run to the governed failure.
	v2 := vm.New(mem.New(), cfg)
	st, err := checkpoint.Decode(seg)
	if err != nil {
		t.Fatal(err)
	}
	v2.Restore(st)
	runErr := v2.Run(0)
	kind, failure := Classify(runErr)
	if !failure || kind != KindResource {
		t.Fatalf("segment 2: kind=%s err=%v", kind, runErr)
	}
	b := &Bundle{
		Kind:       kind,
		VPC:        v2.CPU().PC,
		Cause:      runErr.Error(),
		Config:     CaptureConfig(cfg),
		Checkpoint: seg,
		Counters:   v2.Checkpoint().Counters,
	}
	res, err := Replay(b)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := res.Matches(b); err != nil {
		t.Fatalf("replay diverges: %v", err)
	}
}

// TestMatchesDetectsDivergence checks Matches is not vacuous.
func TestMatchesDetectsDivergence(t *testing.T) {
	b, _ := testBundle(t, 64, nil)
	res, err := Replay(b)
	if err != nil {
		t.Fatal(err)
	}
	res.VPC ^= 4
	if err := res.Matches(b); err == nil {
		t.Error("V-PC divergence not detected")
	}
	res.VPC ^= 4
	res.Kind = KindTrap
	if err := res.Matches(b); err == nil {
		t.Error("kind divergence not detected")
	}
	res.Kind = b.Kind
	res.Counters["stats.InterpInsts"]++
	if err := res.Matches(b); err == nil {
		t.Error("counter divergence not detected")
	}
}

// TestMatchesSkipsStoreDependent pins the counters a replay may
// legitimately disagree on: exactly the four store-dependent ones.
func TestMatchesSkipsStoreDependent(t *testing.T) {
	b, _ := testBundle(t, 64, nil)
	res, err := Replay(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"stats.StoreHits", "stats.StoreMisses",
		"stats.StoreSharedHits", "stats.TranslateCost"} {
		res.Counters[name] += 3
	}
	if err := res.Matches(b); err != nil {
		t.Errorf("store-dependent counters compared: %v", err)
	}
	skipped := 0
	for name := range res.Counters {
		if vm.StoreDependent(name) {
			skipped++
			continue
		}
		res.Counters[name]++
		if err := res.Matches(b); err == nil {
			t.Errorf("divergence in %s not detected", name)
		}
		res.Counters[name]--
	}
	if skipped != 4 {
		t.Errorf("%d counters are store-dependent, want 4", skipped)
	}
}

// TestReplayWithFaultSchedule replays a failure recorded under VM-level
// chaos: the injected fault schedule is part of the bundle, so the
// replay draws the identical faults.
func TestReplayWithFaultSchedule(t *testing.T) {
	fc := &faultinject.Config{Seed: 11, EntryRate: 16}
	b, _ := testBundle(t, 64, fc)
	dec, err := Decode(Encode(b))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(dec)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := res.Matches(dec); err != nil {
		t.Fatalf("replay under chaos diverges: %v", err)
	}
}

// TestBundleRequiresStateSource checks the canonical guard: a bundle
// with neither program nor checkpoint is rejected at decode.
func TestBundleRequiresStateSource(t *testing.T) {
	b := &Bundle{Kind: KindTrap, Config: CaptureConfig(vm.DefaultConfig())}
	if _, err := Decode(Encode(b)); !errors.Is(err, codec.ErrCanonical) {
		t.Fatalf("state-less bundle: %v", err)
	}
}
