//go:build go1.24

package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"github.com/ildp/accdbt/internal/vm"
)

// TestReleasedVMUnreachable checks that a VM the scheduler releases,
// by a shedding spill or by finishing its session, is garbage: nothing
// still references it, the session's telemetry registration included.
func TestReleasedVMUnreachable(t *testing.T) {
	s := testServer(t, Options{Workers: 1, MaxResident: 1, SpillDir: t.TempDir()})
	var (
		mu      sync.Mutex
		guests  []*Session
		last    = map[*Session]weak.Pointer[vm.VM]{} // each guest's VM at the last quantum start
		seen    []weak.Pointer[vm.VM]
		checked int
	)
	// At the top of every quantum (one worker, so no VM is running):
	// a guest resuming from a spill must have lost its old VM, and every
	// resident VM is recorded for the end-of-run check.
	s.hookQuantum = func(cur *Session) {
		mu.Lock()
		defer mu.Unlock()
		cur.mu.Lock()
		spilled := cur.spilled
		cur.mu.Unlock()
		if wp, ok := last[cur]; ok && spilled {
			runtime.GC()
			if wp.Value() != nil {
				t.Errorf("session %s: VM still reachable after its spill", cur.ID)
			}
			checked++
		}
		for _, g := range guests {
			g.mu.Lock()
			if g.vm != nil {
				last[g] = weak.Make(g.vm)
				seen = append(seen, last[g])
			}
			g.mu.Unlock()
		}
	}
	for seed := uint64(0); seed < 3; seed++ {
		sess := submitWorkload(t, s, "gzip", 2, seed, "t0")
		mu.Lock()
		guests = append(guests, sess)
		mu.Unlock()
	}
	for _, sess := range guests {
		waitDone(t, sess, 60*time.Second)
		if st := sess.StateNow(); st != StateDone {
			t.Fatalf("session %s: state %s: %s", sess.ID, st, sess.Err())
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if checked == 0 {
		t.Fatal("no guest resumed from a spill; MaxResident never shed")
	}
	runtime.GC()
	for i, wp := range seen {
		if wp.Value() != nil {
			t.Fatalf("VM %d of %d still reachable after every session finished", i+1, len(seen))
		}
	}
}
