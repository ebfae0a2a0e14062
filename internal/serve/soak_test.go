package serve

import (
	"fmt"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/workload"
)

// TestDifferentialSoak is the serving acceptance criterion: ≥200
// sessions scheduled across ≥8 concurrent workers, the quantum sized so
// every session is forcibly preempted multiple times, and every final
// architected state compared bit-for-bit — registers, PC, exit status,
// console, memory — against an uninterrupted single-VM
// pure-interpreter run of the same image. It runs twice: once with
// every session keeping its VM resident between quanta, and once with
// MaxResident=1 so most requeues shed the session to disk and its next
// quantum restores it cold (checkpoint → encode → write → read → decode
// → restore into a fresh VM). Any scheduler, checkpoint, or
// shared-store bug that perturbs a single guest-visible bit fails the
// test with the first diverging field. Tenants rotate so quota
// accounting churns too.
func TestDifferentialSoak(t *testing.T) {
	sessionsN := 200
	if testing.Short() {
		sessionsN = 48
	}
	for _, set := range []struct {
		name  string
		spill bool
	}{{"resident", false}, {"spilling", true}} {
		t.Run(set.name, func(t *testing.T) {
			opts := Options{
				Workers:       8,
				QuantumVInsts: 15_000, // the smallest workload (~55k V-insts) preempts ≥ 3×
				MaxSessions:   sessionsN,
			}
			if set.spill {
				opts.MaxResident = 1
				opts.SpillDir = t.TempDir()
			}
			s := testServer(t, opts)
			soak(t, s, sessionsN)
			if loads := s.Registry().Counter("serve.spill_loads").Load(); set.spill && loads == 0 {
				t.Error("no spill loads: no session resumed from disk")
			}
		})
	}
}

// soak submits sessionsN workload sessions to s and checks each
// finishes preempted at least once and bit-identical to its oracle.
func soak(t *testing.T, s *Server, sessionsN int) {
	names := workload.Names()
	type job struct {
		sess *Session
		name string
		seed uint64
	}
	jobs := make([]job, 0, sessionsN)
	for i := 0; i < sessionsN; i++ {
		name := names[i%len(names)]
		seed := uint64(i/len(names)) % 4 // 48 distinct programs, oracles cached
		sess := submitWorkload(t, s, name, 1, seed, fmt.Sprintf("tenant-%d", i%7))
		jobs = append(jobs, job{sess, name, seed})
	}
	preempted := 0
	for _, j := range jobs {
		waitDone(t, j.sess, 300*time.Second)
		if got := j.sess.StateNow(); got != StateDone {
			t.Fatalf("session %s (%s seed=%d): state %s: %s",
				j.sess.ID, j.name, j.seed, got, j.sess.Err())
		}
		v := j.sess.view()
		if v.Quanta < 2 {
			t.Errorf("session %s (%s): only %d quanta — preemption never forced",
				j.sess.ID, j.name, v.Quanta)
		} else {
			preempted++
		}
		checkFinal(t, j.sess, oracle(t, j.name, 1, j.seed))
	}
	st := s.Stats()
	if st.Completed != uint64(sessionsN) {
		t.Errorf("completed = %d, want %d", st.Completed, sessionsN)
	}
	t.Logf("soak: %d sessions, %d preempted ≥ once, %d quanta, %d spills, quantum p50/p99 = %.2f/%.2f ms",
		sessionsN, preempted, st.Quanta, st.Spills, st.QuantumP50ms, st.QuantumP99ms)
}
