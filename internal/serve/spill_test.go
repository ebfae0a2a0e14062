package serve

import (
	"io/fs"
	"maps"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/iofs"
	"github.com/ildp/accdbt/internal/workload"
)

// gateFS is the host filesystem with one armed trap: the next
// checkpoint temp-file write signals entered and blocks until release
// closes.
type gateFS struct {
	iofs.OS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gateFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if strings.HasSuffix(name, ".ckpt"+iofs.TempSuffix) && g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return g.OS.WriteFile(name, data, perm)
}

// recvWithin waits for ch to close or fails the test.
func recvWithin(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestShedSpillRacesDequeue runs a shedding spill whose write is still
// in flight when a worker dequeues the session, runs a whole quantum,
// and parks its VM again. The late spill must not commit: the VM, now
// a quantum past the written state, stays resident and the stale file
// is removed. The session then finishes bit-identical to its oracle and
// releases its VM.
func TestShedSpillRacesDequeue(t *testing.T) {
	dir := t.TempDir()
	fsys := &gateFS{entered: make(chan struct{}), release: make(chan struct{})}
	s := testServer(t, Options{Workers: 1, QuantumVInsts: 5_000, SpillDir: dir, FS: fsys})
	atQ2, goQ2 := make(chan struct{}), make(chan struct{})
	atQ3, goQ3 := make(chan struct{}), make(chan struct{})
	// A failed assertion must not leave the worker parked in the hook,
	// or the server's cleanup would wait for it forever.
	t.Cleanup(func() {
		for _, ch := range []chan struct{}{goQ2, goQ3, fsys.release} {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
	})
	var quanta atomic.Int32
	s.hookQuantum = func(*Session) {
		switch quanta.Add(1) {
		case 2:
			close(atQ2)
			<-goQ2
		case 3:
			close(atQ3)
			<-goQ3
		}
	}
	sess := submitWorkload(t, s, "gap", 1, 0, "t0") // ~11 quanta of 5k V-insts

	// Quantum 1 parked the VM; the worker holds the session at the top
	// of quantum 2, before it claims the session.
	recvWithin(t, atQ2, "quantum 2")
	fsys.armed.Store(true)
	spillErr := make(chan error, 1)
	go func() { spillErr <- s.spillSession(sess) }()
	recvWithin(t, fsys.entered, "the spill write")

	// Mid-write, the worker dequeues the session, runs quantum 2, parks
	// the VM again, and pauses at quantum 3.
	close(goQ2)
	recvWithin(t, atQ3, "quantum 3")
	close(fsys.release)
	if err := <-spillErr; err != nil {
		t.Fatalf("spill: %v", err)
	}

	sess.mu.Lock()
	spilled, resident := sess.spilled, sess.vm != nil
	sess.mu.Unlock()
	if spilled || !resident {
		t.Fatalf("stale spill committed: spilled=%v, VM resident=%v", spilled, resident)
	}
	if n, err := countSpillFiles(dir); err != nil || n != 0 {
		t.Fatalf("%d stale spill files left (%v)", n, err)
	}

	close(goQ3)
	waitDone(t, sess, 60*time.Second)
	if got := sess.StateNow(); got != StateDone {
		t.Fatalf("state = %s (%s), want done", got, sess.Err())
	}
	checkFinal(t, sess, oracle(t, "gap", 1, 0))
	sess.mu.Lock()
	resident = sess.vm != nil
	sess.mu.Unlock()
	if resident {
		t.Fatal("finished session still holds its VM")
	}
}

// TestConcurrentShedSpills runs two shedding spills of the same session
// at once, as two workers' shedCold loops can: the second must stand
// aside while the first writes, so exactly one spill commits and its
// file survives for the session to resume from.
func TestConcurrentShedSpills(t *testing.T) {
	dir := t.TempDir()
	fsys := &gateFS{entered: make(chan struct{}), release: make(chan struct{})}
	s := testServer(t, Options{Workers: 1, QuantumVInsts: 5_000, SpillDir: dir, FS: fsys})
	atQ2, goQ2 := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() {
		for _, ch := range []chan struct{}{goQ2, fsys.release} {
			select {
			case <-ch:
			default:
				close(ch)
			}
		}
	})
	var quanta atomic.Int32
	s.hookQuantum = func(*Session) {
		if quanta.Add(1) == 2 {
			close(atQ2)
			<-goQ2
		}
	}
	sess := submitWorkload(t, s, "gap", 1, 0, "t0")
	recvWithin(t, atQ2, "quantum 2")

	fsys.armed.Store(true)
	first := make(chan error, 1)
	go func() { first <- s.spillSession(sess) }()
	recvWithin(t, fsys.entered, "the first spill write")
	if err := s.spillSession(sess); err != nil {
		t.Fatalf("second spill: %v", err)
	}
	close(fsys.release)
	if err := <-first; err != nil {
		t.Fatalf("first spill: %v", err)
	}

	sess.mu.Lock()
	spilled := sess.spilled
	sess.mu.Unlock()
	if n, err := countSpillFiles(dir); !spilled || err != nil || n != 1 {
		t.Fatalf("spilled=%v with %d spill files (%v), want one committed spill", spilled, n, err)
	}
	if got := s.Registry().Counter("serve.spills").Load(); got != 1 {
		t.Fatalf("spills = %d, want 1", got)
	}

	close(goQ2)
	waitDone(t, sess, 60*time.Second)
	if got := sess.StateNow(); got != StateDone {
		t.Fatalf("state = %s (%s), want done", got, sess.Err())
	}
	checkFinal(t, sess, oracle(t, "gap", 1, 0))
}

// TestGaugesAfterFinish checks the scheduler gauges and Stats track only
// live sessions: a live session is counted while it waits, and once
// every session has finished they all read zero, while finished
// sessions stay available for lookup.
func TestGaugesAfterFinish(t *testing.T) {
	s := testServer(t, Options{Workers: 2, QuantumVInsts: 10_000})
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.hookQuantum = func(sess *Session) {
		if sess.Name == "held" {
			once.Do(func() { close(held); <-release })
		}
	}
	names := []string{"gap", "mcf", "bzip2"}
	for _, name := range names {
		waitDone(t, submitWorkload(t, s, name, 1, 0, "t0"), 60*time.Second)
	}

	// gaugesEqual polls: a worker that finished a session may still be
	// publishing the gauges it computed just before.
	gaugesEqual := func(want map[string]float64) {
		t.Helper()
		got := map[string]float64{}
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			for name := range want {
				got[name] = s.Registry().Gauge("serve." + name).Load()
			}
			if maps.Equal(got, want) {
				return
			}
		}
		t.Fatalf("gauges %v, want %v", got, want)
	}

	spec, err := workload.ByName("gap", 1)
	if err != nil {
		t.Fatal(err)
	}
	late, err := s.Submit(spec.MustProgram(), "t1", "held")
	if err != nil {
		t.Fatal(err)
	}
	recvWithin(t, held, "the held session's first quantum")
	if st := s.Stats(); st.Live != 1 {
		t.Errorf("Stats.Live = %d with one session waiting, want 1", st.Live)
	}
	gaugesEqual(map[string]float64{"sessions_live": 1, "sessions_queued": 1, "sessions_running": 0})
	close(release)
	waitDone(t, late, 60*time.Second)

	gaugesEqual(map[string]float64{"sessions_live": 0, "sessions_queued": 0, "sessions_running": 0,
		"sessions_ready": 0, "sessions_spilled": 0, "pages_resident": 0})
	st := s.Stats()
	if st.Live != 0 || st.PagesResident != 0 || st.Completed != uint64(len(names)+1) {
		t.Errorf("Stats after finish: live=%d pages=%d completed=%d", st.Live, st.PagesResident, st.Completed)
	}
	s.mu.Lock()
	live, all := len(s.live), len(s.sessions)
	s.mu.Unlock()
	if live != 0 || all != len(names)+1 {
		t.Errorf("live set %d, session table %d; want 0 and %d", live, all, len(names)+1)
	}
	if _, err := s.Session(late.ID); err != nil {
		t.Errorf("finished session no longer found: %v", err)
	}
}
