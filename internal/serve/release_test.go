//go:build go1.24

package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"github.com/ildp/accdbt/internal/metrics"
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

// TestFinishedGuestKeepsOnlyResult runs more guests than the telemetry
// plane keeps finished sessions: /vms and /metrics shrink to the last
// few, the registries of evicted guests are garbage, and every guest
// still answers on /sessions with its final checkpoint.
func TestFinishedGuestKeepsOnlyResult(t *testing.T) {
	s := testServer(t, Options{Workers: 2})
	var (
		mu   sync.Mutex
		regs = map[string]weak.Pointer[metrics.Registry]{}
	)
	s.hookQuantum = func(cur *Session) {
		mu.Lock()
		regs[cur.ID] = weak.Make(cur.reg)
		mu.Unlock()
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var ids []string
	for i := 0; i < 20; i++ {
		ids = append(ids, submitHTTP(t, srv.URL, "gzip").ID)
	}
	want := oracle(t, "gzip", 1, 0)
	for _, id := range ids {
		sess, err := s.Session(id)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sess, 60*time.Second)
		var view View
		getJSON(t, srv.URL+"/sessions/"+id, &view)
		if view.State != StateDone {
			t.Fatalf("/sessions/%s: state %s: %s", id, view.State, view.Error)
		}
		resp, err := http.Get(srv.URL + "/sessions/" + id + "/checkpoint")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, sess.FinalCheckpoint()) {
			t.Fatalf("/sessions/%s/checkpoint: status %d, %d bytes, %v", id, resp.StatusCode, len(body), err)
		}
		checkFinal(t, sess, want)
	}

	var rows []struct {
		ID string `json:"id"`
	}
	getJSON(t, srv.URL+"/vms", &rows)
	if len(rows) > 8 {
		t.Errorf("/vms lists %d VMs, want at most 8", len(rows))
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(exposition), "\n") {
		if n, ok := strings.CutPrefix(line, "telemetry_sessions "); ok {
			if v, err := strconv.Atoi(n); err != nil || v > 8 {
				t.Errorf("telemetry_sessions = %s, want at most 8", n)
			}
		}
	}
	if strings.Contains(string(exposition), `session="1"`) {
		t.Error(`/metrics still renders series with session="1"`)
	}

	kept := map[string]bool{}
	for _, r := range rows {
		kept[r.ID] = true
	}
	runtime.GC()
	mu.Lock()
	defer mu.Unlock()
	evicted := 0
	for _, id := range ids {
		if kept[id] {
			continue
		}
		evicted++
		if regs[id].Value() != nil {
			t.Errorf("guest %s: registry still reachable after its plane session was evicted", id)
		}
	}
	if evicted < len(ids)-8 {
		t.Errorf("%d guests evicted, want at least %d", evicted, len(ids)-8)
	}
}
