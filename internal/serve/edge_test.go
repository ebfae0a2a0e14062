package serve

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/codec"
)

// countSpillFiles counts .ckpt + .json files in a spill directory.
func countSpillFiles(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt") || strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n, nil
}

// TestKillMidQuantum kills a session while its quantum is executing;
// the Stop hook must preempt at the next V-instruction boundary and the
// session must settle StateKilled without disturbing a sibling.
func TestKillMidQuantum(t *testing.T) {
	// One worker and a huge quantum: the victim occupies the worker
	// until the kill flag preempts it.
	s := testServer(t, Options{Workers: 1, QuantumVInsts: 1 << 40})
	victim := submitWorkload(t, s, "vpr", 50, 0, "t0")
	sibling := submitWorkload(t, s, "gap", 1, 0, "t0")

	// Wait until the victim is actually running, then kill it.
	deadline := time.Now().Add(30 * time.Second)
	for victim.StateNow() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("victim never ran (state %s)", victim.StateNow())
		}
		time.Sleep(time.Millisecond)
	}
	victim.Kill()
	waitDone(t, victim, 30*time.Second)
	if got := victim.StateNow(); got != StateKilled {
		t.Fatalf("victim state = %s (%s), want killed", got, victim.Err())
	}
	waitDone(t, sibling, 60*time.Second)
	if got := sibling.StateNow(); got != StateDone {
		t.Fatalf("sibling state = %s (%s), want done", got, sibling.Err())
	}
	checkFinal(t, sibling, oracle(t, "gap", 1, 0))
	if got := s.Stats().Killed; got != 1 {
		t.Errorf("killed = %d, want 1", got)
	}
}

// TestResumeCorruptCheckpoint feeds Resume a spill directory whose
// checkpoint bytes are corrupted: the typed checkpoint error must
// surface as that session's failure (a 409-style outcome), counted as
// corrupt, while the server keeps admitting and completing other work.
func TestResumeCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// A plausible spill set: valid meta, checkpoint with a flipped bit.
	valid := checkpoint.Encode(&checkpoint.State{PC: 0x1000})
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0x40 // damage the CRC trailer
	if err := os.WriteFile(filepath.Join(dir, "7.ckpt"), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "7.json"),
		[]byte(`{"id":"7","tenant":"t0","name":"gap","quanta":3,"v_insts":15000}`), 0o644); err != nil {
		t.Fatal(err)
	}

	s := testServer(t, Options{Workers: 1, SpillDir: dir})
	resumed, corruptN, err := s.Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 || corruptN != 1 {
		t.Fatalf("resume = (%d, %d), want (0, 1)", resumed, corruptN)
	}
	views := s.SessionViews()
	if len(views) != 1 {
		t.Fatalf("sessions = %d, want 1", len(views))
	}
	sess, _ := s.Session(views[0].ID)
	if got := sess.StateNow(); got != StateFailed {
		t.Fatalf("corrupt-resume state = %s, want failed", got)
	}
	_, derr := checkpoint.Decode(corrupt)
	var ckErr *codec.Error
	if !errors.As(derr, &ckErr) {
		t.Fatalf("test invariant broken: corruption produced %v, not a typed checkpoint error", derr)
	}
	if !strings.Contains(sess.Err(), "checkpoint:") {
		t.Errorf("failure cause %q does not name the checkpoint error", sess.Err())
	}
	// The server is not poisoned: new work admits and completes.
	next := submitWorkload(t, s, "gap", 1, 0, "t0")
	waitDone(t, next, 60*time.Second)
	if got := next.StateNow(); got != StateDone {
		t.Fatalf("post-corruption session state = %s (%s), want done", got, next.Err())
	}
}

// TestQuotaRejectThenReadmit rejects a tenant at its quota, then
// re-admits it once its live session finishes — the full 429-then-200
// client story.
func TestQuotaRejectThenReadmit(t *testing.T) {
	s := testServer(t, Options{Workers: 2, QuantumVInsts: 10_000, TenantQuota: 1})
	// Hold tenant-a's first session in its first quantum, so it is still
	// live when the over-quota submit arrives however fast it would run.
	release := make(chan struct{})
	unhold := sync.OnceFunc(func() { close(release) })
	defer unhold()
	s.hookQuantum = func(sess *Session) {
		if sess.Tenant == "tenant-a" && sess.Name == "gap" {
			<-release
		}
	}
	first := submitWorkload(t, s, "gap", 1, 0, "tenant-a")
	if _, err := s.Submit(nil, "tenant-a", "over"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota submit: %v, want ErrTenantQuota", err)
	}
	unhold()
	// A different tenant is unaffected.
	other := submitWorkload(t, s, "gap", 1, 1, "tenant-b")
	waitDone(t, first, 60*time.Second)
	// The quota slot freed: tenant-a re-admits successfully.
	second := submitWorkload(t, s, "bzip2", 1, 0, "tenant-a")
	waitDone(t, second, 60*time.Second)
	waitDone(t, other, 60*time.Second)
	checkFinal(t, second, oracle(t, "bzip2", 1, 0))
	if got := s.Stats().Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// TestQueueFull rejects admission beyond MaxSessions with ErrQueueFull.
func TestQueueFull(t *testing.T) {
	s := testServer(t, Options{Workers: 1, QuantumVInsts: 1 << 40, MaxSessions: 2})
	// Hold the first session in its first quantum, so both sessions are
	// still live when the over-capacity submit arrives however fast they
	// would run.
	release := make(chan struct{})
	unhold := sync.OnceFunc(func() { close(release) })
	defer unhold()
	s.hookQuantum = func(sess *Session) {
		if sess.Name == "vpr" {
			<-release
		}
	}
	a := submitWorkload(t, s, "vpr", 1, 0, "t0")
	b := submitWorkload(t, s, "parser", 1, 0, "t0")
	if _, err := s.Submit(nil, "t0", "over"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: %v, want ErrQueueFull", err)
	}
	unhold()
	waitDone(t, a, 60*time.Second)
	waitDone(t, b, 60*time.Second)
	// Capacity freed: admission works again.
	c := submitWorkload(t, s, "gap", 1, 0, "t0")
	waitDone(t, c, 60*time.Second)
}

// TestCrashBarrier panics inside one session's quantum and proves the
// blast radius is that session alone: it lands StateCrashed with the
// panic as its cause, the worker survives, and siblings complete
// bit-identical to their oracles.
func TestCrashBarrier(t *testing.T) {
	s := testServer(t, Options{Workers: 1, QuantumVInsts: 10_000})
	// The hook is read by workers only after a session flows through the
	// run-queue channel, so setting it before the first Submit is safe.
	s.hookQuantum = func(sess *Session) {
		if sess.Name == "bzip2" {
			panic("translator bug: impossible accumulator state")
		}
	}
	sibling := submitWorkload(t, s, "gap", 1, 0, "t0")
	bomb := submitWorkload(t, s, "bzip2", 1, 0, "t0")

	waitDone(t, bomb, 30*time.Second)
	if got := bomb.StateNow(); got != StateCrashed {
		t.Fatalf("bomb state = %s, want crashed", got)
	}
	if !strings.Contains(bomb.Err(), "impossible accumulator state") {
		t.Errorf("crash cause %q lost the panic value", bomb.Err())
	}
	waitDone(t, sibling, 60*time.Second)
	if got := sibling.StateNow(); got != StateDone {
		t.Fatalf("sibling state = %s (%s), want done", got, sibling.Err())
	}
	checkFinal(t, sibling, oracle(t, "gap", 1, 0))
	if got := s.Stats().Crashed; got != 1 {
		t.Errorf("crashed = %d, want 1", got)
	}
}

// TestShedCold forces the resident-session bound so cold sessions
// spill to disk mid-run, and proves spilled-and-reloaded sessions still
// finish bit-identical to the oracle.
func TestShedCold(t *testing.T) {
	dir := t.TempDir()
	s := testServer(t, Options{
		Workers: 1, QuantumVInsts: 5_000, MaxResident: 1, SpillDir: dir,
	})
	names := []string{"gap", "bzip2", "mcf", "twolf"}
	var sessions []*Session
	for _, name := range names {
		sessions = append(sessions, submitWorkload(t, s, name, 1, 0, "t0"))
	}
	for i, sess := range sessions {
		waitDone(t, sess, 120*time.Second)
		if got := sess.StateNow(); got != StateDone {
			t.Fatalf("session %s state = %s (%s), want done", sess.ID, got, sess.Err())
		}
		checkFinal(t, sess, oracle(t, names[i], 1, 0))
	}
	if got := s.Registry().Counter("serve.spills").Load(); got == 0 {
		t.Error("no shedding spills with MaxResident=1 and 4 concurrent sessions")
	}
	if got := s.Registry().Counter("serve.spill_loads").Load(); got == 0 {
		t.Error("no spill loads: shed checkpoints never resumed from disk")
	}
}

// TestSessionBudget fails a session that exhausts its cumulative
// V-instruction budget across quanta.
func TestSessionBudget(t *testing.T) {
	s := testServer(t, Options{Workers: 1, QuantumVInsts: 5_000, SessionVBudget: 12_000})
	sess := submitWorkload(t, s, "gap", 1, 0, "t0") // needs ~55k V-insts
	waitDone(t, sess, 30*time.Second)
	if got := sess.StateNow(); got != StateFailed {
		t.Fatalf("state = %s, want failed", got)
	}
	if !strings.Contains(sess.Err(), "budget") {
		t.Errorf("failure cause %q does not mention the budget", sess.Err())
	}
	v := sess.view()
	if v.Quanta < 2 {
		t.Errorf("quanta = %d, want ≥ 2 (budget should outlive the first quantum)", v.Quanta)
	}
}
