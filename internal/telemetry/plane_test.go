package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/vm"
)

// fakeSession registers a synthetic finished session: a registry with a
// few instruments plus a probe returning fixed Stats, so handler tests
// need no real VM.
func fakeSession(p *Plane) *Session {
	reg := metrics.NewRegistry()
	reg.Counter("tcache.installs").Add(3)
	reg.Histogram("translate.cost").Observe(2)
	reg.Event(metrics.Event{Kind: metrics.EventTranslate, Frag: 1, VStart: 0x100})
	reg.Event(metrics.Event{Kind: metrics.EventInstall, Frag: 1, VStart: 0x100})
	s := p.Register(SessionConfig{
		Name: "fake", Workload: "gzip", Machine: "ildp-modified", Registry: reg,
	})
	s.Attach(func() Live {
		return Live{
			Stats: vm.Stats{InterpInsts: 100, TransVInsts: 900, Fragments: 7},
			VPC:   0x2a0, Halted: true, ExitStatus: 0,
			Hot: &prof.Profile{
				Frags:       []prof.FragAgg{{VStart: 0x100, Entries: 5, Cycles: 1234}},
				TotalCycles: 2000, Activations: 5,
			},
		}
	})
	s.Finish()
	return s
}

// TestPlaneHealthReady covers /healthz and the ready flip on /readyz.
func TestPlaneHealthReady(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz: %d %q", code, body)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before SetReady: %d, want 503", code)
	}
	p.SetReady(true)
	if code, _ := get("/readyz"); code != 200 {
		t.Errorf("/readyz after SetReady: %d, want 200", code)
	}
}

// TestPlaneMetrics checks the /metrics exposition of a registered
// session: live vm.* samples from the probe, the session registry's
// instruments with session labels, and the plane's own series.
func TestPlaneMetrics(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	fakeSession(p)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("content type %q, want %q", ct, PromContentType)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE vm_interp_insts counter",
		`vm_interp_insts{session="1",workload="gzip",machine="ildp-modified"} 100`,
		`vm_trans_v_insts{session="1",workload="gzip",machine="ildp-modified"} 900`,
		`vm_vpc{session="1",workload="gzip",machine="ildp-modified"} 672`,
		`tcache_installs{session="1",workload="gzip",machine="ildp-modified"} 3`,
		"# TYPE translate_cost histogram",
		`translate_cost_quantile{session="1",workload="gzip",machine="ildp-modified",q="0.5"} 2`,
		`metrics_events_recorded{session="1",workload="gzip",machine="ildp-modified"} 2`,
		"telemetry_sessions 1",
		"telemetry_sse_dropped_clients 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

// TestPlaneVMs covers the /vms list and /vms/{id} detail, including
// the on-demand hot table and the 404 path.
func TestPlaneVMs(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	fakeSession(p)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/vms")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0]["id"] != "1" || list[0]["done"] != true {
		t.Fatalf("/vms = %+v", list)
	}
	if list[0]["v_insts"].(float64) != 1000 {
		t.Errorf("v_insts = %v, want 1000", list[0]["v_insts"])
	}

	resp, err = http.Get(srv.URL + "/vms/1?hot=10")
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		ID  string `json:"id"`
		Hot []struct {
			VStart float64 `json:"vstart"`
			Cycles float64 `json:"cycles"`
		} `json:"hot"`
		HotTotals *struct {
			TotalCycles float64 `json:"total_cycles"`
		} `json:"hot_totals"`
		Recovery map[string]any `json:"recovery"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if detail.ID != "1" {
		t.Errorf("detail id = %q", detail.ID)
	}
	if len(detail.Hot) != 1 || detail.Hot[0].VStart != 0x100 || detail.Hot[0].Cycles != 1234 {
		t.Errorf("hot table = %+v", detail.Hot)
	}
	if detail.HotTotals == nil || detail.HotTotals.TotalCycles != 2000 {
		t.Errorf("hot totals = %+v", detail.HotTotals)
	}
	if detail.Recovery == nil {
		t.Error("recovery section missing")
	}

	resp, err = http.Get(srv.URL + "/vms/99")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/vms/99 status = %d, want 404", resp.StatusCode)
	}
}

// TestPlaneKeepsLastFinished checks the plane's retention rule: every
// unfinished session and the last keepFinished finished ones stay, in ID
// order; an evicted session is gone from /vms and its registry tap is
// cancelled; a second Finish evicts nothing.
func TestPlaneKeepsLastFinished(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()
	var sessions []*Session
	var regs []*metrics.Registry
	for i := 0; i < 12; i++ {
		reg := metrics.NewRegistry()
		regs = append(regs, reg)
		sessions = append(sessions, p.Register(SessionConfig{Name: "s", Registry: reg}))
	}
	for _, s := range sessions[:10] {
		s.Finish()
	}
	want := []string{"3", "4", "5", "6", "7", "8", "9", "10", "11", "12"}
	check := func() {
		t.Helper()
		var got []string
		for _, s := range p.Sessions() {
			got = append(got, s.ID())
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("Sessions() = %v, want %v", got, want)
		}
		resp, err := http.Get(srv.URL + "/vms")
		if err != nil {
			t.Fatal(err)
		}
		var rows []struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rows)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for _, r := range rows {
			got = append(got, r.ID)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("/vms ids = %v, want %v", got, want)
		}
	}
	check()

	resp, err := http.Get(srv.URL + "/vms/1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/vms/1 of an evicted session: status %d, want 404", resp.StatusCode)
	}

	published := p.Broadcaster().Published()
	regs[0].Event(metrics.Event{Kind: metrics.EventInstall, Frag: 1})
	if got := p.Broadcaster().Published(); got != published {
		t.Errorf("evicted session's event published: %d events, want %d", got, published)
	}
	regs[2].Event(metrics.Event{Kind: metrics.EventInstall, Frag: 1})
	if got := p.Broadcaster().Published(); got != published+1 {
		t.Errorf("kept session's event: %d events published, want %d", got, published+1)
	}

	sessions[9].Finish()
	check()
}

// TestSessionProbeLifecycle checks that a session holds its probe only
// while attached: Register parks it, Attach captures, Park and Finish
// capture once more and drop the probe, and State keeps serving the
// captured snapshot without ever calling the probe again.
func TestSessionProbeLifecycle(t *testing.T) {
	p := New(Options{})
	defer p.Close()
	s := p.Register(SessionConfig{Name: "life"})
	if _, _, _, ok := s.State(time.Hour); ok {
		t.Fatal("registered session served a snapshot before Attach")
	}

	calls := 0
	vpc := uint64(0)
	probe := func() Live {
		calls++
		vpc += 4
		return Live{VPC: vpc}
	}
	s.Attach(probe)
	if calls != 1 {
		t.Fatalf("Attach ran the probe %d times, want 1", calls)
	}
	s.Poll() // nobody wants a snapshot: no probe run
	if calls != 1 {
		t.Fatalf("idle Poll ran the probe")
	}

	s.Park()
	if calls != 2 {
		t.Fatalf("Park ran the probe %d times in all, want 2", calls)
	}
	for i := 0; i < 3; i++ {
		live, _, fresh, ok := s.State(time.Hour)
		if !ok || fresh || live.VPC != 8 {
			t.Fatalf("parked State = vpc %#x fresh %v ok %v, want the Park snapshot 0x8", live.VPC, fresh, ok)
		}
		s.Poll()
	}
	if calls != 2 {
		t.Fatalf("probe ran %d times after Park, want 2 in all", calls)
	}

	s.Attach(probe)
	s.Finish()
	if calls != 4 {
		t.Fatalf("Attach+Finish ran the probe %d times in all, want 4", calls)
	}
	s.Finish()
	s.Poll()
	live, _, fresh, ok := s.State(time.Hour)
	if !ok || !fresh || live.VPC != 16 || !s.Done() {
		t.Fatalf("finished State = vpc %#x fresh %v ok %v done %v, want the Finish snapshot 0x10", live.VPC, fresh, ok, s.Done())
	}
	if calls != 4 {
		t.Fatalf("probe ran %d times after Finish, want 4 in all", calls)
	}
}

// sseClient opens /events and returns a line scanner over the stream
// plus a closer.
func sseClient(t *testing.T, url string) (*bufio.Scanner, func()) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		t.Fatalf("SSE status %d", resp.StatusCode)
	}
	return bufio.NewScanner(resp.Body), func() { resp.Body.Close() }
}

// readSSEData returns the next n `data:` payloads of `metrics` frames,
// skipping the hello frame and keepalive comments.
func readSSEData(t *testing.T, sc *bufio.Scanner, n int) []string {
	t.Helper()
	var out []string
	event := ""
	for len(out) < n && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "metrics":
			out = append(out, strings.TrimPrefix(line, "data: "))
		}
	}
	return out
}

// TestPlaneSSE is the acceptance scenario: two concurrent SSE clients
// both receive live events while a third, stalled client (connected
// but never reading) is shed through the per-client drop policy — and
// the publisher (standing in for the VM goroutine) is never blocked.
func TestPlaneSSE(t *testing.T) {
	reg := metrics.NewRegistry()
	p := New(Options{})
	defer p.Close()
	sess := p.Register(SessionConfig{Name: "sse", Workload: "w", Registry: reg})
	_ = sess
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	// Client 3: connects and stalls — a raw socket that sends the
	// request and never reads the response.
	raw, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("GET /events HTTP/1.1\r\nHost: t\r\nAccept: text/event-stream\r\n\r\n")); err != nil {
		t.Fatal(err)
	}

	sc1, close1 := sseClient(t, srv.URL+"/events")
	defer close1()
	sc2, close2 := sseClient(t, srv.URL+"/events")
	defer close2()

	// Wait until all three subscribers are attached.
	deadline := time.Now().Add(5 * time.Second)
	for p.Broadcaster().Subscribers() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d SSE clients attached", p.Broadcaster().Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A few live events: both healthy clients must see every one.
	for i := 0; i < 5; i++ {
		reg.Event(metrics.Event{Kind: metrics.EventInstall, Frag: int32(i), VStart: uint64(i)})
	}
	for name, sc := range map[string]*bufio.Scanner{"client1": sc1, "client2": sc2} {
		got := readSSEData(t, sc, 5)
		if len(got) != 5 {
			t.Fatalf("%s: got %d events, want 5", name, len(got))
		}
		var e StreamEvent
		if err := json.Unmarshal([]byte(got[4]), &e); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Session != "1" || e.Event.Frag != 4 {
			t.Errorf("%s: last event = %+v", name, e)
		}
	}

	// Shed the stalled client: keep publishing (never blocking) until
	// its socket backpressure fills the per-client buffer and drops
	// start counting. Healthy clients drain concurrently so they lose
	// nothing.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc1.Scan() && sc2.Scan() {
			if p.Broadcaster().SubsDropped() > 0 {
				return
			}
		}
	}()
	start := time.Now()
	var published int
	for p.Broadcaster().SubsDropped() == 0 && time.Since(start) < 20*time.Second {
		reg.Event(metrics.Event{Kind: metrics.EventChain, Frag: int32(published)})
		published++
		if published%256 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	if p.Broadcaster().SubsDropped() == 0 {
		t.Fatalf("stalled client never dropped after %d events", published)
	}
	t.Logf("stalled client shed after %d events (%v), per-client drops=%d",
		published, time.Since(start), p.Broadcaster().SubsDropped())
	close1()
	close2()
	<-drained
}

// TestPlaneSSEReplay checks that ?replay=N replays the tail of the
// session's retained event ring to a late-attaching client — the
// mechanism the CI smoke uses to read events after the run completed.
func TestPlaneSSEReplay(t *testing.T) {
	reg := metrics.NewRegistry()
	for i := 0; i < 10; i++ {
		reg.Event(metrics.Event{Kind: metrics.EventInstall, Frag: int32(i)})
	}
	p := New(Options{})
	defer p.Close()
	p.Register(SessionConfig{Name: "replay", Registry: reg})
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	sc, closeFn := sseClient(t, srv.URL+"/events?replay=4")
	defer closeFn()
	got := readSSEData(t, sc, 4)
	if len(got) != 4 {
		t.Fatalf("replayed %d events, want 4", len(got))
	}
	var first StreamEvent
	if err := json.Unmarshal([]byte(got[0]), &first); err != nil {
		t.Fatal(err)
	}
	// Ten events recorded, the last four replayed: frags 6..9.
	if first.Event.Frag != 6 {
		t.Errorf("first replayed frag = %d, want 6", first.Event.Frag)
	}
}

// TestPlaneCloseGoroutineLeak proves Close is a full shutdown: the SSE
// dispatcher goroutine stops, every client buffer is released, and
// every session's registry tap is detached — so a long-lived owner (the
// serve scheduler) can open and close planes without accreting
// goroutines. The assertion is before/after runtime.NumGoroutine with a
// settle loop, since HTTP connection goroutines exit asynchronously.
func TestPlaneCloseGoroutineLeak(t *testing.T) {
	// Let goroutines from earlier tests in the package finish exiting
	// before taking the baseline.
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(10 * time.Millisecond)
			if m := runtime.NumGoroutine(); m >= n {
				return n
			} else {
				n = m
			}
		}
		return n
	}
	before := settle()

	reg := metrics.NewRegistry()
	p := New(Options{})
	p.Register(SessionConfig{Name: "leak", Workload: "w", Registry: reg})
	srv := httptest.NewServer(p.Handler())

	var closers []func()
	for i := 0; i < 3; i++ {
		sc, closeFn := sseClient(t, srv.URL+"/events")
		closers = append(closers, closeFn)
		_ = sc
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.Broadcaster().Subscribers() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d SSE clients attached", p.Broadcaster().Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}
	reg.Event(metrics.Event{Kind: metrics.EventInstall, Frag: 1})

	p.Close()
	p.Close() // idempotent

	// The session tap must be detached: an event published after Close
	// never reaches the broadcaster, not even as an intake drop.
	pub, inDrop := p.Broadcaster().Published(), p.Broadcaster().InDropped()
	reg.Event(metrics.Event{Kind: metrics.EventInstall, Frag: 2})
	if got := p.Broadcaster().Published(); got != pub {
		t.Errorf("published after Close: %d -> %d, tap still live", pub, got)
	}
	if got := p.Broadcaster().InDropped(); got != inDrop {
		t.Errorf("intake drops after Close: %d -> %d, tap still live", inDrop, got)
	}

	// Closing the plane closes every subscriber channel, so the three
	// streaming handlers return and srv.Close can join them.
	for _, closeFn := range closers {
		closeFn()
	}
	srv.Close()

	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
