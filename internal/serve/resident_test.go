package serve

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/flight"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/telemetry"
)

// trapper is a hot loop whose last iteration issues a misaligned load:
// about 8 V-instructions per iteration, then a precise alignment trap
// inside translated code.
const trapper = `
	.text 0x10000
start:
	ldiq  a0, 0x20000
	ldiq  a1, 1500
	clr   v0
loop:
	subq  a1, 1, a1
	clr   t2
	cmoveq a1, 1, t2
	addq  a0, t2, t3
	ldq   t0, 0(t3)
	addq  v0, t0, v0
	lda   a0, 8(a0)
	bne   a1, loop
	call_pal halt
`

// replayBundle reads sess's flight bundle from dir, checks it is of
// kind and replays it uninterrupted to the recorded failure.
func replayBundle(t *testing.T, dir string, sess *Session, kind string) *flight.Bundle {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, sess.ID+".bundle"))
	if err != nil {
		t.Fatalf("bundle not written: %v", err)
	}
	b, err := flight.Decode(raw)
	if err != nil {
		t.Fatalf("bundle decode: %v", err)
	}
	if b.Kind != kind {
		t.Fatalf("bundle kind %s, want %s", b.Kind, kind)
	}
	res, err := flight.Replay(b)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := res.Matches(b); err != nil {
		t.Fatalf("replay diverges from recorded failure: %v", err)
	}
	return b
}

// TestResidentSessionOneVM checks a multi-quantum session that is never
// spilled keeps one VM for its whole life: the VM is built once and
// never restored from a checkpoint, and the session still finishes
// bit-identical to the oracle.
func TestResidentSessionOneVM(t *testing.T) {
	s := testServer(t, Options{Workers: 1, QuantumVInsts: 5_000})
	// A finished session drops its registry and plane registration;
	// keep them from the last quantum.
	var reg *metrics.Registry
	var tsess *telemetry.Session
	s.hookQuantum = func(cur *Session) { reg, tsess = cur.reg, cur.tsess }
	sess := submitWorkload(t, s, "gap", 1, 0, "t0")
	waitDone(t, sess, 60*time.Second)
	if got := sess.StateNow(); got != StateDone {
		t.Fatalf("state = %s (%s), want done", got, sess.Err())
	}
	checkFinal(t, sess, oracle(t, "gap", 1, 0))
	q := sess.view().Quanta
	if q < 3 {
		t.Fatalf("quanta = %d, want ≥ 3", q)
	}
	if got := reg.Counter("vm.preempt.resumes").Load(); got != 0 {
		t.Errorf("vm.preempt.resumes = %d, want 0: the session rebuilt its VM from a checkpoint", got)
	}
	if live, _, _, ok := tsess.State(0); !ok || live.Preemptions != uint64(q-1) {
		t.Errorf("plane reports %d preemptions, want %d (one per requeue)", live.Preemptions, q-1)
	}
}

// TestTrapBundleReplaysFromProgram fails a session with a guest trap
// several quanta into its life; its bundle carries the program image,
// and an uninterrupted replay from it reproduces the trap's V-PC and
// every counter the preempted session recorded.
func TestTrapBundleReplaysFromProgram(t *testing.T) {
	bundleDir := t.TempDir()
	s := testServer(t, Options{Workers: 1, QuantumVInsts: 2_000, BundleDir: bundleDir})
	sess, err := s.Submit(alphaasm.MustAssemble(trapper), "t0", "trapper")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sess, 60*time.Second)
	if got := sess.StateNow(); got != StateFailed {
		t.Fatalf("state = %s (%s), want failed", got, sess.Err())
	}
	if q := sess.view().Quanta; q < 3 {
		t.Fatalf("trapped after %d quanta, want ≥ 3", q)
	}
	b := replayBundle(t, bundleDir, sess, flight.KindTrap)
	if b.Counters["stats.TransVInsts"] == 0 {
		t.Error("the trapper never ran translated code")
	}
	if len(b.Program) == 0 || len(b.Checkpoint) != 0 {
		t.Errorf("bundle carries program %d bytes, checkpoint %d bytes; want the program only",
			len(b.Program), len(b.Checkpoint))
	}
}

// TestShedBundleReplaysFromOrigin fails a session with a guest trap
// after it was shed to disk and reloaded: its VM was cold-restored from
// the spill, so the bundle carries that checkpoint as its origin, and
// an uninterrupted replay from it reproduces the failure.
func TestShedBundleReplaysFromOrigin(t *testing.T) {
	bundleDir := t.TempDir()
	s := testServer(t, Options{
		Workers: 1, QuantumVInsts: 2_000, MaxResident: 1,
		SpillDir: t.TempDir(), BundleDir: bundleDir,
	})
	var reg *metrics.Registry // the trapper's, kept from its last quantum
	s.hookQuantum = func(cur *Session) {
		if cur.Name == "trapper" {
			reg = cur.reg
		}
	}
	// Long-running siblings, admitted first, keep the trapper from being
	// the only ready session, so MaxResident=1 sheds it between quanta.
	sibs := []*Session{submitWorkload(t, s, "gap", 1, 0, "t1"), submitWorkload(t, s, "mcf", 1, 0, "t1")}
	sess, err := s.Submit(alphaasm.MustAssemble(trapper), "t0", "trapper")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sess, 60*time.Second)
	if got := sess.StateNow(); got != StateFailed {
		t.Fatalf("state = %s (%s), want failed", got, sess.Err())
	}
	if got := reg.Counter("vm.preempt.resumes").Load(); got == 0 {
		t.Fatal("trapper was never reloaded from a spill")
	}
	b := replayBundle(t, bundleDir, sess, flight.KindTrap)
	if len(b.Checkpoint) == 0 || len(b.Program) != 0 {
		t.Errorf("bundle carries checkpoint %d bytes, program %d bytes; want the origin checkpoint only",
			len(b.Checkpoint), len(b.Program))
	}
	for i, name := range []string{"gap", "mcf"} {
		waitDone(t, sibs[i], 60*time.Second)
		checkFinal(t, sibs[i], oracle(t, name, 1, 0))
	}
}

// TestBudgetBundleReplays fails a session whose cumulative budget runs
// out inside a chained loop, after earlier quanta preempted it there:
// the budget is checked at every fragment entry, so an uninterrupted
// replay from the program runs out at the same boundary with the same
// counters.
func TestBudgetBundleReplays(t *testing.T) {
	bundleDir := t.TempDir()
	s := testServer(t, Options{
		Workers: 1, QuantumVInsts: 3_000, SessionVBudget: 12_000, BundleDir: bundleDir,
	})
	sess := submitWorkload(t, s, "gap", 1, 0, "t0")
	waitDone(t, sess, 60*time.Second)
	if got := sess.StateNow(); got != StateFailed {
		t.Fatalf("state = %s (%s), want failed", got, sess.Err())
	}
	replayBundle(t, bundleDir, sess, flight.KindBudget)
}
