package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/workload"
)

// testServer builds a server with small, preemption-heavy defaults and
// closes it with the test.
func testServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 4
	}
	if opts.QuantumVInsts == 0 {
		opts.QuantumVInsts = 20_000 // every scale-1 workload needs several quanta
	}
	s := New(opts)
	t.Cleanup(s.Close)
	return s
}

// oracleCache memoizes uninterrupted pure-interpreter runs per
// (workload, scale, seed); the soak reuses them across sessions.
var oracleCache sync.Map

// oracle returns the final CPU of an uninterrupted interpreter run.
func oracle(t *testing.T, name string, scale int, seed uint64) *emu.CPU {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%d", name, scale, seed)
	if c, ok := oracleCache.Load(key); ok {
		return c.(*emu.CPU)
	}
	spec, err := workload.ByNameSeeded(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	cpu := emu.New(mem.New())
	if err := cpu.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if err := cpu.Run(100_000_000); err != nil {
		t.Fatalf("oracle %s: %v", key, err)
	}
	oracleCache.Store(key, cpu)
	return cpu
}

// waitDone blocks until the session settles or the deadline expires.
func waitDone(t *testing.T, sess *Session, timeout time.Duration) {
	t.Helper()
	select {
	case <-sess.Done():
	case <-time.After(timeout):
		t.Fatalf("session %s stuck in state %s after %v", sess.ID, sess.StateNow(), timeout)
	}
}

// checkFinal decodes the session's final checkpoint and compares every
// architected field bit-for-bit against the oracle CPU.
func checkFinal(t *testing.T, sess *Session, want *emu.CPU) {
	t.Helper()
	final := sess.FinalCheckpoint()
	if final == nil {
		t.Fatalf("session %s (%s): no final checkpoint: %s", sess.ID, sess.StateNow(), sess.Err())
	}
	st, err := checkpoint.Decode(final)
	if err != nil {
		t.Fatalf("session %s: final checkpoint undecodable: %v", sess.ID, err)
	}
	if st.Halted != want.Halted || st.ExitStatus != want.ExitStatus {
		t.Fatalf("session %s: halted/exit = %v/%d, want %v/%d",
			sess.ID, st.Halted, st.ExitStatus, want.Halted, want.ExitStatus)
	}
	if st.PC != want.PC {
		t.Fatalf("session %s: PC = %#x, want %#x", sess.ID, st.PC, want.PC)
	}
	for r := alpha.Reg(0); r < alpha.NumRegs; r++ {
		if st.Reg[r] != want.Reg[r] {
			t.Fatalf("session %s: R%d = %#x, want %#x", sess.ID, r, st.Reg[r], want.Reg[r])
		}
	}
	if string(st.Console) != want.ConsoleString() {
		t.Fatalf("session %s: console = %q, want %q", sess.ID, st.Console, want.ConsoleString())
	}
	m := mem.New()
	m.LoadSnapshot(st.Pages)
	if ok, addr := mem.Equal(m, want.Mem); !ok {
		t.Fatalf("session %s: memory differs at %#x", sess.ID, addr)
	}
}

// submitWorkload admits a named workload through the Go API.
func submitWorkload(t *testing.T, s *Server, name string, scale int, seed uint64, tenant string) *Session {
	t.Helper()
	spec, err := workload.ByNameSeeded(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.Submit(prog, tenant, name)
	if err != nil {
		t.Fatalf("submit %s: %v", name, err)
	}
	return sess
}

// TestSessionLifecycle runs one guest to completion across forced
// preemptions and proves its final state bit-identical to the
// uninterrupted interpreter oracle.
func TestSessionLifecycle(t *testing.T) {
	s := testServer(t, Options{Workers: 2, QuantumVInsts: 10_000})
	sess := submitWorkload(t, s, "gap", 1, 0, "t0")
	waitDone(t, sess, 60*time.Second)
	if got := sess.StateNow(); got != StateDone {
		t.Fatalf("state = %s (%s), want done", got, sess.Err())
	}
	v := sess.view()
	if v.Quanta < 2 {
		t.Errorf("quanta = %d, want ≥ 2 (preemption never fired)", v.Quanta)
	}
	if !v.Halted {
		t.Errorf("halted = false, want true")
	}
	checkFinal(t, sess, oracle(t, "gap", 1, 0))
	if got := s.Stats().Completed; got != 1 {
		t.Errorf("completed = %d, want 1", got)
	}
}

// TestHTTPAPI drives the full HTTP surface: submit by workload name and
// by raw image, long-poll to completion, fetch the final checkpoint,
// list, stats, kill, and the telemetry fall-through.
func TestHTTPAPI(t *testing.T) {
	s := testServer(t, Options{Workers: 2, QuantumVInsts: 10_000})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Submit by workload name.
	resp, err := http.Post(srv.URL+"/sessions?workload=gap", "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Long-poll until done.
	deadline := time.Now().Add(60 * time.Second)
	for v.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck: %+v", v)
		}
		resp, err := http.Get(srv.URL + "/sessions/" + v.ID + "?wait=2000")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.State.Terminal() && v.State != StateDone {
			t.Fatalf("session ended %s: %s", v.State, v.Error)
		}
	}

	// The final checkpoint decodes and matches the oracle.
	resp, err = http.Get(srv.URL + "/sessions/" + v.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint: %d %s", resp.StatusCode, raw)
	}
	st, err := checkpoint.Decode(raw)
	if err != nil {
		t.Fatalf("checkpoint decode: %v", err)
	}
	want := oracle(t, "gap", 1, 0)
	if st.ExitStatus != want.ExitStatus || !st.Halted {
		t.Errorf("checkpoint exit = %v/%d, want true/%d", st.Halted, st.ExitStatus, want.ExitStatus)
	}

	// Submit the same program as a raw image body.
	spec, _ := workload.ByName("gap", 1)
	prog, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := prog.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/sessions", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var v2 View
	if err := json.NewDecoder(resp.Body).Decode(&v2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || v2.Name != "image" {
		t.Fatalf("image submit: %d %+v", resp.StatusCode, v2)
	}

	// List shows both; stats counts them; /metrics still serves (the
	// plane fall-through) and includes scheduler series.
	resp, err = http.Get(srv.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var views []View
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 2 {
		t.Fatalf("list: %d sessions, want 2", len(views))
	}
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Admitted != 2 {
		t.Errorf("stats.admitted = %d, want 2", stats.Admitted)
	}
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "serve_admitted") {
		t.Errorf("/metrics missing scheduler series:\n%.400s", mb)
	}

	// Unknown session is a JSON 404.
	resp, err = http.Get(srv.URL + "/sessions/9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: %d, want 404", resp.StatusCode)
	}
}

// TestLongPollBounded checks that ?wait= is capped: a poll asking for
// ten minutes on a session held in its first quantum returns the
// session's live view within the cap.
func TestLongPollBounded(t *testing.T) {
	s := testServer(t, Options{Workers: 1})
	release := make(chan struct{})
	s.hookQuantum = func(*Session) { <-release }
	defer close(release)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	v := submitHTTP(t, srv.URL, "gzip")

	client := &http.Client{Timeout: 10 * time.Second}
	start := time.Now()
	resp, err := client.Get(srv.URL + "/sessions/" + v.ID + "?wait=600000")
	if err != nil {
		t.Fatalf("long poll: %v", err)
	}
	defer resp.Body.Close()
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("?wait=600000 returned after %v, want under 3s", d)
	}
	var got View
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != v.ID || got.State.Terminal() {
		t.Errorf("long poll returned %+v, want session %s still live", got, v.ID)
	}
}

// TestHTTPAcceptedIsJSON checks the two 202 responses, POST /sessions
// and DELETE /sessions/{id}: each is labelled JSON like every other
// response, and the killed session settles StateKilled.
func TestHTTPAcceptedIsJSON(t *testing.T) {
	// One worker and a huge quantum keep the session live until the kill.
	s := testServer(t, Options{Workers: 1, QuantumVInsts: 1 << 40})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	accepted := func(resp *http.Response, err error) View {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		what := resp.Request.Method + " " + resp.Request.URL.Path
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s: %d %s, want 202", what, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", what, ct)
		}
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return v
	}
	v := accepted(http.Post(srv.URL+"/sessions?workload=vpr&scale=50", "application/octet-stream", nil))
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/sessions/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k := accepted(http.DefaultClient.Do(req)); k.ID != v.ID {
		t.Errorf("kill answered for session %q, want %q", k.ID, v.ID)
	}
	sess, err := s.Session(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, sess, 30*time.Second)
	if got := sess.StateNow(); got != StateKilled {
		t.Fatalf("state = %s (%s), want killed", got, sess.Err())
	}
}

// TestDrainResume is the graceful-shutdown acceptance path: drain a
// server with sessions still in flight, assert every unfinished session
// spilled with a meta sidecar, then resume them on a fresh server and
// prove they complete bit-identical to the oracle.
func TestDrainResume(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{Workers: 2, QuantumVInsts: 5_000, SpillDir: dir})
	defer s.Close()
	// Hold gap's first quantum until the drain has begun, so at least one
	// session is still unfinished when it lands however fast the others
	// run; the drain then preempts gap at its first boundary.
	s.hookQuantum = func(sess *Session) {
		for sess.Name == "gap" && !s.Draining() {
			time.Sleep(time.Millisecond)
		}
	}

	names := []string{"gap", "bzip2", "mcf"}
	for _, name := range names {
		submitWorkload(t, s, name, 1, 0, "t0")
	}
	// Let the scheduler make some progress, then drain mid-run.
	waitQuanta(t, s, 2, 30*time.Second)
	spilled, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if spilled == 0 {
		t.Fatal("drain spilled 0 sessions; expected in-flight work (quantum too large?)")
	}
	if !s.Draining() {
		t.Error("Draining() = false after Drain")
	}
	if _, err := s.Submit(nil, "t0", "late"); !errors.Is(err, ErrDraining) {
		t.Errorf("submit during drain: %v, want ErrDraining", err)
	}

	// A successor server picks the spill directory up.
	s2 := New(Options{Workers: 2, QuantumVInsts: 5_000, SpillDir: dir})
	defer s2.Close()
	resumed, corrupt, err := s2.Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != spilled || corrupt != 0 {
		t.Fatalf("resume = (%d, %d), want (%d, 0)", resumed, corrupt, spilled)
	}
	// Every resumed session runs to completion with the oracle's state.
	for _, v := range s2.SessionViews() {
		sess, err := s2.Session(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, sess, 60*time.Second)
		if got := sess.StateNow(); got != StateDone {
			t.Fatalf("resumed session %s (%s): state %s: %s", v.ID, v.Name, got, sess.Err())
		}
		checkFinal(t, sess, oracle(t, v.Name, 1, 0))
	}
	// Consumed spills leave no files behind.
	left, _ := countSpillFiles(dir)
	if left != 0 {
		t.Errorf("%d spill files left after resume", left)
	}
}

// waitQuanta blocks until the scheduler has executed at least n quanta.
func waitQuanta(t *testing.T, s *Server, n uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for s.Registry().Counter("serve.quanta").Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler executed %d quanta, want ≥ %d",
				s.Registry().Counter("serve.quanta").Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}
