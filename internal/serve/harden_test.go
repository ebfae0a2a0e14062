package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/flight"
	"github.com/ildp/accdbt/internal/iofs"
	"github.com/ildp/accdbt/internal/workload"
)

// TestIOChaosSoak is the hostile-disk acceptance criterion: many seeds
// of injectable I/O faults (ENOSPC, EIO, torn writes, partial reads,
// rename failures) aimed at the spill path while sessions are forced
// through it (MaxResident=1 spills on every preemption). The invariant
// under every schedule: a session either completes bit-identical to
// the uninterrupted interpreter oracle, or fails with a typed cause —
// no torn file is ever parsed as state, no session is silently lost,
// and sibling sessions never observe a neighbour's disk fault.
func TestIOChaosSoak(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	names := []string{"gap", "bzip2", "mcf"}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			faulty := iofs.NewFaulty(iofs.OS{}, iofs.Config{Seed: uint64(seed), Rate: 3})
			s := testServer(t, Options{
				Workers:       2,
				QuantumVInsts: 10_000,
				MaxResident:   1,
				SpillDir:      t.TempDir(),
				FS:            faulty,
			})
			type job struct {
				sess *Session
				name string
				seed uint64
			}
			var jobs []job
			for i, name := range names {
				ds := uint64((seed + i) % 4)
				jobs = append(jobs, job{submitWorkload(t, s, name, 1, ds, "t0"), name, ds})
			}
			done, failed := 0, 0
			for _, j := range jobs {
				waitDone(t, j.sess, 120*time.Second)
				switch st := j.sess.StateNow(); st {
				case StateDone:
					done++
					checkFinal(t, j.sess, oracle(t, j.name, 1, j.seed))
				case StateFailed:
					failed++
					if j.sess.Err() == "" {
						t.Errorf("session %s failed without a typed cause", j.sess.ID)
					}
				default:
					t.Errorf("session %s lost in state %s", j.sess.ID, st)
				}
			}
			t.Logf("seed %d: %d done, %d failed typed; faults applied: %s",
				seed, done, failed, faulty.Counts())
		})
	}
}

// TestDrainSpillFaultsTyped starves the drain protocol of disk: every
// write fails with ENOSPC. Drain must still complete — each pending
// session becomes a typed drain-spill failure, counted as an I/O
// fault, and the server settles instead of hanging or crashing.
func TestDrainSpillFaultsTyped(t *testing.T) {
	faulty := iofs.NewFaulty(iofs.OS{}, iofs.Config{
		Seed: 1, Rate: 1, Kinds: []iofs.Kind{iofs.KindNoSpace},
	})
	s := testServer(t, Options{
		Workers:       2,
		QuantumVInsts: 5_000,
		SpillDir:      t.TempDir(),
		BundleDir:     t.TempDir(),
		FS:            faulty,
	})
	var sessions []*Session
	for _, name := range []string{"gzip", "vpr", "parser"} {
		sessions = append(sessions, submitWorkload(t, s, name, 1, 0, "t0"))
	}
	waitQuanta(t, s, 2, 30*time.Second)
	spilled, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if spilled != 0 {
		t.Errorf("drain spilled %d sessions with every write failing", spilled)
	}
	for _, sess := range sessions {
		waitDone(t, sess, 30*time.Second)
		switch sess.StateNow() {
		case StateDone: // finished before the drain; unaffected
		case StateFailed:
			if !strings.HasPrefix(sess.Err(), "drain spill:") {
				t.Errorf("session %s: cause %q, want a typed drain-spill failure",
					sess.ID, sess.Err())
			}
		default:
			t.Errorf("session %s lost in state %s", sess.ID, sess.StateNow())
		}
	}
	if st := s.Stats(); st.IOFaults == 0 {
		t.Error("no I/O faults counted under a full-ENOSPC drain")
	}
}

// TestResumeOrphanSweep reproduces the wreckage of a drain that died
// between its two writes — a checkpoint with no sidecar — plus an
// interrupted atomic-write temporary, and checks Resume counts and
// sweeps both while resuming the healthy pair bit-identically.
func TestResumeOrphanSweep(t *testing.T) {
	// The guest runs for hundreds of quanta, so it is still in flight
	// when the drain lands after the first one, however the host
	// schedules the test.
	const scale = 8
	dir := t.TempDir()
	s1 := New(Options{Workers: 1, QuantumVInsts: 5_000, SpillDir: dir})
	defer s1.Close()
	submitWorkload(t, s1, "vortex", scale, 0, "t0")
	waitQuanta(t, s1, 1, 30*time.Second)
	if spilled, err := s1.Drain(); err != nil || spilled != 1 {
		t.Fatalf("drain = (%d, %v), want (1, nil)", spilled, err)
	}
	pairs, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(pairs) != 1 {
		t.Fatalf("drain left %d checkpoints, want 1", len(pairs))
	}
	// The orphan is a valid checkpoint no sidecar names.
	raw, err := os.ReadFile(pairs[0])
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "999.ckpt")
	if err := os.WriteFile(orphan, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "888.ckpt"+iofs.TempSuffix)
	if err := os.WriteFile(stray, []byte("interrupted atomic write"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := testServer(t, Options{Workers: 1, QuantumVInsts: 5_000, SpillDir: dir})
	resumed, corrupt, err := s2.Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 || corrupt != 0 {
		t.Fatalf("resume = (%d, %d), want (1, 0)", resumed, corrupt)
	}
	if got := s2.Registry().Counter("serve.resume.orphans").Load(); got != 1 {
		t.Errorf("orphans counted = %d, want 1", got)
	}
	for _, p := range []string{orphan, stray} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s not swept", p)
		}
	}
	for _, v := range s2.SessionViews() {
		sess, err := s2.Session(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sess, 60*time.Second)
		if sess.StateNow() != StateDone {
			t.Fatalf("resumed session %s: state %s: %s", v.ID, sess.StateNow(), sess.Err())
		}
		checkFinal(t, sess, oracle(t, "vortex", scale, 0))
	}
}

// TestMembombGovernedSiblings is the resource-governance acceptance
// criterion: a guest that strides stores across fresh pages is killed
// with a typed resource failure at its page cap, while sibling
// sessions of other tenants complete bit-identical to their oracles.
// The kill also emits a flight bundle that replays to the identical
// failure — same kind, same V-PC, same counters.
func TestMembombGovernedSiblings(t *testing.T) {
	bundleDir := t.TempDir()
	s := testServer(t, Options{
		Workers:         2,
		QuantumVInsts:   150, // the bomb hits its 64-page cap ~400 V-insts in
		SessionMaxPages: 64,
		BundleDir:       bundleDir,
	})
	bomb := submitWorkload(t, s, "membomb", 1, 0, "bomber")
	type sib struct {
		sess *Session
		name string
	}
	sibs := []sib{
		{submitWorkload(t, s, "gzip", 1, 0, "calm"), "gzip"},
		{submitWorkload(t, s, "gap", 1, 0, "calm"), "gap"},
	}
	waitDone(t, bomb, 60*time.Second)
	if bomb.StateNow() != StateFailed {
		t.Fatalf("membomb state %s: %s", bomb.StateNow(), bomb.Err())
	}
	if !strings.HasPrefix(bomb.Err(), "resource:") {
		t.Errorf("membomb cause %q, want a typed resource failure", bomb.Err())
	}
	if q := bomb.view().Quanta; q < 2 {
		t.Errorf("membomb ran %d quanta, want ≥ 2: its bundle must replay across a preemption", q)
	}
	for _, sb := range sibs {
		waitDone(t, sb.sess, 60*time.Second)
		if sb.sess.StateNow() != StateDone {
			t.Fatalf("sibling %s state %s: %s", sb.name, sb.sess.StateNow(), sb.sess.Err())
		}
		checkFinal(t, sb.sess, oracle(t, sb.name, 1, 0))
	}
	st := s.Stats()
	if st.ResourceKills != 1 {
		t.Errorf("resource kills = %d, want 1", st.ResourceKills)
	}
	if st.Bundles != 1 {
		t.Errorf("bundles = %d, want 1", st.Bundles)
	}

	// The recorded bundle replays to the bit-identical failure.
	raw, err := os.ReadFile(filepath.Join(bundleDir, bomb.ID+".bundle"))
	if err != nil {
		t.Fatalf("bundle not written: %v", err)
	}
	b, err := flight.Decode(raw)
	if err != nil {
		t.Fatalf("bundle decode: %v", err)
	}
	if b.Kind != flight.KindResource {
		t.Fatalf("bundle kind %s, want %s", b.Kind, flight.KindResource)
	}
	res, err := flight.Replay(b)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := res.Matches(b); err != nil {
		t.Fatalf("replay diverges from recorded failure: %v", err)
	}
}

// TestTenantPageQuotaAdmission checks the admission side of the tenant
// page quota: a tenant already holding its quota of resident pages is
// rejected 429-style with ErrTenantQuota while other tenants admit.
func TestTenantPageQuotaAdmission(t *testing.T) {
	s := testServer(t, Options{Workers: 1, TenantPageQuota: 10})
	// Plant a live session already holding the quota; it is never
	// enqueued, so the scheduler leaves its page accounting alone.
	s.mu.Lock()
	fake := &Session{ID: "fake", Tenant: "greedy", state: StateReady,
		pages: 10, done: make(chan struct{})}
	s.sessions["fake"] = fake
	s.live["fake"] = fake
	s.mu.Unlock()

	spec, err := workload.ByName("gap", 1)
	if err != nil {
		t.Fatal(err)
	}
	prog := spec.MustProgram()
	if _, err := s.Submit(prog, "greedy", "gap"); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota admission: %v, want ErrTenantQuota", err)
	}
	if got := s.Registry().Counter("serve.rejected.pages").Load(); got != 1 {
		t.Errorf("page rejections = %d, want 1", got)
	}
	sess, err := s.Submit(prog, "modest", "gap")
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	waitDone(t, sess, 60*time.Second)
	if sess.StateNow() != StateDone {
		t.Fatalf("modest tenant's session: %s: %s", sess.StateNow(), sess.Err())
	}
}

// TestTenantPageQuotaBoundaryKill checks the enforcement side: a
// tenant whose resident pages grow past the quota has the offending
// session failed, typed, at the quantum boundary that observed it.
func TestTenantPageQuotaBoundaryKill(t *testing.T) {
	s := testServer(t, Options{Workers: 1, QuantumVInsts: 1_000, TenantPageQuota: 100})
	bomb := submitWorkload(t, s, "membomb", 1, 0, "t0")
	waitDone(t, bomb, 60*time.Second)
	if bomb.StateNow() != StateFailed {
		t.Fatalf("membomb state %s: %s", bomb.StateNow(), bomb.Err())
	}
	if !strings.HasPrefix(bomb.Err(), "resource: tenant") {
		t.Errorf("cause %q, want a typed tenant page-quota kill", bomb.Err())
	}
	if got := s.Stats().ResourceKills; got != 1 {
		t.Errorf("resource kills = %d, want 1", got)
	}
}
