// Package telemetry is the embeddable live-introspection plane for
// VM-hosting processes (DESIGN.md §13). A Plane serves, over plain
// net/http:
//
//   - /metrics — Prometheus text exposition of every held session's
//     counters, gauges, histograms (with quantiles), live
//     vm.* statistics, and event-ring drop totals, plus the unlabelled
//     process-level registry and fragment-store totals;
//   - /events — a server-sent-events stream of fragment lifecycle
//     events fanned out through a never-blocks-the-publisher
//     broadcaster with per-client drop accounting;
//   - /vms and /vms/{id} — JSON session introspection: live Stats,
//     recovery/preemption counters, translation-cache occupancy,
//     fragment-store shard statistics, and the on-demand hot-fragment
//     table;
//   - /healthz and /readyz — liveness and readiness.
//
// The design invariant is zero perturbation of the translation loop:
// all VM state is captured on the VM goroutine at the same
// V-instruction boundaries where the stop hook is polled (vm.Config's
// Poll), so attaching the plane adds one atomic load per boundary and
// no shared locks, and a stalled HTTP consumer can only ever lose its
// own events.
package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
)

// Options configures a Plane. The zero value is usable.
type Options struct {
	// Logger receives the plane's structured diagnostics; nil uses
	// slog.Default.
	Logger *slog.Logger
	// Store is the process-wide fragment store every session translates
	// through; /metrics renders its totals once and every /vms/{id}
	// carries its store and shard sections. May be nil.
	Store *fragstore.Store
}

// probeWait bounds how long a scrape waits for the VM to reach a poll
// boundary before serving the cached snapshot.
const probeWait = 100 * time.Millisecond

// keepFinished is how many of the most recently finished sessions the
// plane keeps, so its output stays bounded however long the owner runs.
const keepFinished = 8

// Plane is the introspection server: a session registry, the
// process-level metrics registry and fragment store, an SSE
// broadcaster, and the HTTP handlers tying them together. It holds
// every unfinished session and the last keepFinished finished ones.
// All methods are safe for concurrent use.
type Plane struct {
	log     *slog.Logger
	bc      *Broadcaster
	reg     *metrics.Registry
	store   *fragstore.Store
	ready   atomic.Bool
	scrapes atomic.Uint64

	mu sync.Mutex
	// sessions is in registration order, which is ID order; finished
	// holds its finished members in finish order, oldest first.
	sessions []*Session
	finished []*Session
	nextID   int
	closed   bool

	mux *http.ServeMux
}

// New constructs a Plane and its HTTP handler tree.
func New(opts Options) *Plane {
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	p := &Plane{
		log:   log,
		bc:    NewBroadcaster(0, 0),
		reg:   metrics.NewRegistry(),
		store: opts.Store,
		mux:   http.NewServeMux(),
	}
	p.mux.HandleFunc("GET /metrics", p.handleMetrics)
	p.mux.HandleFunc("GET /events", p.handleEvents)
	p.mux.HandleFunc("GET /vms", p.handleVMs)
	p.mux.HandleFunc("GET /vms/{id}", p.handleVM)
	p.mux.HandleFunc("GET /healthz", p.handleHealthz)
	p.mux.HandleFunc("GET /readyz", p.handleReadyz)
	return p
}

// Handler returns the plane's HTTP handler, mountable on any server.
func (p *Plane) Handler() http.Handler { return p.mux }

// Serve listens on addr, writes the "telemetry: serving on" line with
// the bound address to out, serves the plane in the background and
// marks it ready. It is for command-line owners: the server runs until
// the process exits.
func (p *Plane) Serve(addr string, out io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "telemetry:          serving on http://%s\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, p.mux); err != nil && !errors.Is(err, net.ErrClosed) {
			p.log.Error("telemetry server failed", "err", err)
		}
	}()
	p.SetReady(true)
	return nil
}

// SetReady flips the /readyz verdict. Owners call SetReady(true) once
// their sessions are registered and the listener is up.
func (p *Plane) SetReady(ready bool) { p.ready.Store(ready) }

// Registry returns the process-level metrics registry, for instruments
// that belong to the process rather than to one session (a scheduler's
// counters). /metrics renders it without labels.
func (p *Plane) Registry() *metrics.Registry { return p.reg }

// Broadcaster returns the plane's event broadcaster, for owners that
// want to publish synthetic events or read drop counters.
func (p *Plane) Broadcaster() *Broadcaster { return p.bc }

// Register adds a session to the plane, taps its metrics registry so
// every recorded event is broadcast on /events (tagged with the session
// ID), and returns the session handle, parked until its first Attach.
// The tap publishes without blocking, so the VM goroutine is never
// delayed by a slow or stalled stream consumer.
func (p *Plane) Register(cfg SessionConfig) *Session {
	p.mu.Lock()
	p.nextID++
	s := &Session{
		plane:    p,
		id:       p.nextID,
		name:     cfg.Name,
		workload: cfg.Workload,
		machine:  cfg.Machine,
		started:  time.Now(),
		reg:      cfg.Registry,
		parked:   true,
	}
	p.sessions = append(p.sessions, s)
	closed := p.closed
	p.mu.Unlock()
	id := s.ID()
	// A closed plane's broadcaster only counts drops, so registering
	// after Close skips the tap rather than subscribing to a dead
	// stream. Re-check under the lock before publishing the cancel:
	// a Close racing this registration must not leave a live tap
	// behind.
	if !closed {
		cancel := cfg.Registry.Subscribe(func(e metrics.Event) {
			p.bc.Publish(StreamEvent{Session: id, Event: e})
		})
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			cancel()
		} else {
			s.cancelTap = cancel
			p.mu.Unlock()
		}
	}
	p.log.Info("session registered", "session", id, "name", cfg.Name,
		"workload", cfg.Workload, "machine", cfg.Machine)
	return s
}

// retire records a session's first Finish. Once more than keepFinished
// sessions have finished, the oldest is evicted: dropped from the
// session list, with its registry tap cancelled as Close would.
func (p *Plane) retire(s *Session) {
	p.mu.Lock()
	p.finished = append(p.finished, s)
	if len(p.finished) <= keepFinished {
		p.mu.Unlock()
		return
	}
	old := p.finished[0]
	p.finished = slices.Delete(p.finished, 0, 1)
	p.sessions = slices.DeleteFunc(p.sessions, func(x *Session) bool { return x == old })
	cancel := old.cancelTap
	old.cancelTap = nil
	p.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	p.log.Info("session evicted", "session", old.ID())
}

// Sessions returns the sessions the plane holds, in ID order.
func (p *Plane) Sessions() []*Session {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.sessions)
}

// Close shuts the plane down: it detaches every session's registry tap
// (so session registries stop feeding a dead stream and the closures
// they hold become collectable), then closes the broadcaster, which
// stops the dispatcher goroutine and closes every /events client
// channel, releasing their buffers. Close is idempotent; sessions
// registered afterwards are tracked but not tapped.
func (p *Plane) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	taps := make([]func(), 0, len(p.sessions))
	for _, s := range p.sessions {
		if s.cancelTap != nil {
			taps = append(taps, s.cancelTap)
			s.cancelTap = nil
		}
	}
	p.mu.Unlock()
	for _, cancel := range taps {
		cancel()
	}
	p.bc.Close()
}

// sessionLabels builds the label set identifying a session's samples.
func sessionLabels(s *Session) []Label {
	labels := []Label{{Name: "session", Value: s.ID()}}
	if s.workload != "" {
		labels = append(labels, Label{Name: "workload", Value: s.workload})
	}
	if s.machine != "" {
		labels = append(labels, Label{Name: "machine", Value: s.machine})
	}
	return labels
}

// handleMetrics renders the Prometheus exposition: per session, the
// live vm.* statistics (captured through the poll protocol and
// published into a throwaway registry) and the session's own registry
// (translation/cache/recovery instruments, histogram quantiles, event
// ring totals); then, without labels, the process-level registry, the
// fragment store's totals and the plane's own stream-health series.
func (p *Plane) handleMetrics(w http.ResponseWriter, r *http.Request) {
	p.scrapes.Add(1)
	wait := probeWait
	if ms, err := strconv.Atoi(r.URL.Query().Get("wait")); err == nil && ms >= 0 {
		wait = time.Duration(min(ms, 2000)) * time.Millisecond // capped at 2 s
	}
	exp := NewExposition()
	sessions := p.Sessions()
	for _, s := range sessions {
		labels := sessionLabels(s)
		live, _, fresh, ok := s.State(wait)
		if ok {
			// Live vm.* samples: Stats.Publish renders the snapshot copy
			// into a scrape-local registry, reusing the exact counter
			// naming of end-of-run reports. Skipped when the owner already
			// published final stats into the session registry (the
			// -metrics report path), which would duplicate every series.
			if !hasVMCounters(s.reg) {
				tmp := metrics.NewRegistry()
				live.Stats.Publish(tmp)
				if live.Preemptions != 0 {
					tmp.Counter("vm.preempt.preemptions").Add(live.Preemptions)
				}
				exp.AddRegistry(tmp, labels...)
			}
			exp.Add("vm.vpc", "gauge", float64(live.VPC), labels...)
			exp.Add("vm.halted", "gauge", b2f(live.Halted), labels...)
			exp.Add("vm.tcache.slots", "gauge", float64(live.TCache.Slots), labels...)
			exp.Add("vm.tcache.live", "gauge", float64(live.TCache.Live), labels...)
			exp.Add("vm.tcache.code_bytes", "gauge", float64(live.TCache.CodeBytes), labels...)
		}
		exp.Add("telemetry.session_fresh", "gauge", b2f(fresh), labels...)
		exp.Add("telemetry.session_done", "gauge", b2f(s.Done()), labels...)
		exp.AddRegistry(s.reg, labels...)
	}
	exp.AddRegistry(p.reg)
	if p.store != nil {
		st := p.store.Stats()
		exp.Add("fragstore.entries", "gauge", float64(st.Entries))
		exp.Add("fragstore.hits", "counter", float64(st.Hits))
		exp.Add("fragstore.misses", "counter", float64(st.Misses))
		exp.Add("fragstore.shared_hits", "counter", float64(st.SharedHits))
	}
	exp.Add("telemetry.sessions", "gauge", float64(len(sessions)))
	exp.Add("telemetry.scrapes", "counter", float64(p.scrapes.Load()))
	exp.Add("telemetry.sse.clients", "gauge", float64(p.bc.Subscribers()))
	exp.Add("telemetry.sse.published", "counter", float64(p.bc.Published()))
	exp.Add("telemetry.sse.delivered", "counter", float64(p.bc.Delivered()))
	exp.Add("telemetry.sse.dropped_intake", "counter", float64(p.bc.InDropped()))
	exp.Add("telemetry.sse.dropped_clients", "counter", float64(p.bc.SubsDropped()))
	w.Header().Set("Content-Type", PromContentType)
	if err := exp.Write(w); err != nil {
		p.log.Warn("metrics write failed", "err", err)
	}
}

// hasVMCounters reports whether the registry already holds the
// published vm.* aggregates (an owner that called Stats.Publish on
// it). The sentinel is vm.interp_insts, which only Stats.Publish
// emits — live instruments like vm.recovery.episodes must not trip
// this, or chaos sessions would lose their live samples.
func hasVMCounters(reg *metrics.Registry) bool {
	if reg == nil {
		return false
	}
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "vm.interp_insts" {
			return true
		}
	}
	return false
}

// b2f renders a bool as a 0/1 gauge value.
func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// handleEvents serves the SSE stream. Query parameters: session=ID
// filters to one session; replay=N first replays up to N retained
// events per session from the registries' event rings (oldest first),
// which makes the stream useful even after a run has completed.
func (p *Plane) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, okF := w.(http.Flusher)
	if !okF {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	q := r.URL.Query()
	only := q.Get("session")
	replay := 0
	if n, err := strconv.Atoi(q.Get("replay")); err == nil && n > 0 {
		replay = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	// Subscribe before replaying so no event falls between the replayed
	// tail and the live stream (duplicates are possible, gaps are not —
	// consumers can dedup on (session, event.seq)).
	sub := p.bc.Subscribe()
	defer sub.Close()
	p.log.Info("sse client connected", "client", sub.ID(), "remote", r.RemoteAddr,
		"replay", replay, "session", only)
	defer func() {
		p.log.Info("sse client disconnected", "client", sub.ID(),
			"delivered", sub.Delivered(), "dropped", sub.Dropped())
	}()

	sessions := p.Sessions()
	fmt.Fprintf(w, "event: hello\ndata: {\"client\":%d,\"sessions\":%d}\n\n",
		sub.ID(), len(sessions))
	if replay > 0 {
		for _, s := range sessions {
			if only != "" && s.ID() != only {
				continue
			}
			evs := s.reg.Events()
			if len(evs) > replay {
				evs = evs[len(evs)-replay:]
			}
			for _, e := range evs {
				payload, err := json.Marshal(StreamEvent{Session: s.ID(), Event: e})
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "event: metrics\ndata: %s\n\n", payload)
			}
		}
	}
	flusher.Flush()

	ctx := r.Context()
	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-keepalive.C:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case payload, okC := <-sub.Events():
			if !okC {
				return
			}
			if only != "" && !sessionMatches(payload, only) {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: metrics\ndata: %s\n\n", payload); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// sessionMatches reports whether a marshalled StreamEvent belongs to
// the given session, without unmarshalling: the session field is always
// first in the payload.
func sessionMatches(payload []byte, session string) bool {
	return strings.HasPrefix(string(payload), `{"session":"`+session+`"`)
}

// vmSummary is the /vms list row.
type vmSummary struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Workload   string    `json:"workload,omitempty"`
	Machine    string    `json:"machine,omitempty"`
	Started    time.Time `json:"started"`
	Done       bool      `json:"done"`
	Fresh      bool      `json:"fresh"`
	AgeMS      int64     `json:"age_ms"`
	VPC        uint64    `json:"vpc"`
	Halted     bool      `json:"halted"`
	VInsts     uint64    `json:"v_insts"`
	Fragments  int       `json:"fragments"`
	Recoveries uint64    `json:"recoveries"`
	Preempts   uint64    `json:"preemptions"`
	StoreHits  uint64    `json:"store_hits,omitempty"`
}

// handleVMs lists every held session with headline numbers.
func (p *Plane) handleVMs(w http.ResponseWriter, r *http.Request) {
	out := []vmSummary{}
	for _, s := range p.Sessions() {
		live, at, fresh, ok := s.State(probeWait)
		out = append(out, summarize(s, live, at, fresh, ok))
	}
	writeJSON(w, p.log, out)
}

// summarize builds a session's /vms row from its State snapshot.
func summarize(s *Session, live Live, at time.Time, fresh, ok bool) vmSummary {
	row := vmSummary{
		ID: s.ID(), Name: s.name, Workload: s.workload, Machine: s.machine,
		Started: s.started, Done: s.Done(), Fresh: fresh,
	}
	if ok {
		row.AgeMS = time.Since(at).Milliseconds()
		row.VPC = live.VPC
		row.Halted = live.Halted
		row.VInsts = live.Stats.TotalVInsts()
		row.Fragments = live.Stats.Fragments
		row.Recoveries = live.Stats.Recoveries()
		row.Preempts = live.Preemptions
		row.StoreHits = live.Stats.StoreHits
	}
	return row
}

// hotRow is one /vms/{id} hot-table entry.
type hotRow struct {
	VStart  uint64 `json:"vstart"`
	Entries uint64 `json:"entries"`
	Cycles  int64  `json:"cycles"`
	IInsts  uint64 `json:"i_insts"`
	VInsts  uint64 `json:"v_insts"`
}

// vmDetail is the /vms/{id} response.
type vmDetail struct {
	vmSummary
	ExitStatus uint64                `json:"exit_status"`
	Stats      any                   `json:"stats"`
	TCache     any                   `json:"tcache"`
	Recovery   recoveryDetail        `json:"recovery"`
	Store      *storeDetail          `json:"store,omitempty"`
	Hot        []hotRow              `json:"hot,omitempty"`
	HotTotals  *hotTotals            `json:"hot_totals,omitempty"`
	Shards     []fragstore.ShardStat `json:"shards,omitempty"`
}

// recoveryDetail groups the self-healing and preemption counters.
type recoveryDetail struct {
	Total         uint64 `json:"total"`
	ReverifyFails uint64 `json:"reverify_fails"`
	SpuriousTraps uint64 `json:"spurious_traps"`
	ForcedEvicts  uint64 `json:"forced_evicts"`
	CacheShrinks  uint64 `json:"cache_shrinks"`
	TransFailures uint64 `json:"trans_failures"`
	StaleLinks    uint64 `json:"stale_links"`
	Quarantines   uint64 `json:"quarantines"`
	WatchdogTrips uint64 `json:"watchdog_trips"`
	Preemptions   uint64 `json:"preemptions"`
	RecoveryCost  int64  `json:"recovery_cost"`
}

// storeDetail is the fragment-store section of /vms/{id}.
type storeDetail struct {
	Entries    int    `json:"entries"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	SharedHits uint64 `json:"shared_hits"`
	Loaded     uint64 `json:"loaded"`
	Dropped    uint64 `json:"dropped"`
}

// hotTotals summarises the live profile accompanying the hot table.
type hotTotals struct {
	TotalCycles    int64   `json:"total_cycles"`
	DispatchCycles int64   `json:"dispatch_cycles"`
	VMCycles       int64   `json:"vm_cycles"`
	Activations    uint64  `json:"activations"`
	SpanP50        float64 `json:"span_p50"`
	SpanP95        float64 `json:"span_p95"`
	SpanP99        float64 `json:"span_p99"`
}

// handleVM serves one session's full introspection state. ?hot=N
// includes the top-N hot-fragment rows from the live profile.
func (p *Plane) handleVM(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sessions := p.Sessions()
	i := slices.IndexFunc(sessions, func(s *Session) bool { return s.ID() == id })
	if i < 0 {
		http.Error(w, "unknown session", http.StatusNotFound)
		return
	}
	sess := sessions[i]
	hotN := 0
	if n, err := strconv.Atoi(r.URL.Query().Get("hot")); err == nil && n > 0 {
		hotN = n
	}
	live, at, fresh, ok := sess.State(probeWait)
	d := vmDetail{vmSummary: summarize(sess, live, at, fresh, ok)}
	if ok {
		d.ExitStatus = live.ExitStatus
		d.Stats = live.Stats
		d.TCache = live.TCache
		d.Recovery = recoveryDetail{
			Total:         live.Stats.Recoveries(),
			ReverifyFails: live.Stats.ReverifyFails,
			SpuriousTraps: live.Stats.SpuriousTraps,
			ForcedEvicts:  live.Stats.ForcedEvicts,
			CacheShrinks:  live.Stats.CacheShrinks,
			TransFailures: live.Stats.TransFailures,
			StaleLinks:    live.Stats.StaleLinks,
			Quarantines:   live.Stats.Quarantines,
			WatchdogTrips: live.Stats.WatchdogTrips,
			Preemptions:   live.Preemptions,
			RecoveryCost:  live.Stats.RecoveryCost,
		}
		if hotN > 0 && live.Hot != nil {
			d.Hot, d.HotTotals = hotTable(live.Hot, hotN)
		}
	}
	if p.store != nil {
		st := p.store.Stats()
		d.Store = &storeDetail{
			Entries: st.Entries, Hits: st.Hits, Misses: st.Misses,
			SharedHits: st.SharedHits, Loaded: st.Loaded, Dropped: st.Dropped,
		}
		for _, sh := range p.store.ShardStats() {
			if sh.Entries != 0 || sh.Hits != 0 || sh.Misses != 0 {
				d.Shards = append(d.Shards, sh)
			}
		}
	}
	writeJSON(w, p.log, d)
}

// hotTable extracts the top-n rows (by cycles, the profile's order) and
// the frame totals from a live profile.
func hotTable(lp *prof.Profile, n int) ([]hotRow, *hotTotals) {
	rows := make([]hotRow, 0, n)
	for i, f := range lp.Frags {
		if i >= n {
			break
		}
		rows = append(rows, hotRow{
			VStart: f.VStart, Entries: f.Entries, Cycles: f.Cycles,
			IInsts: f.IInsts, VInsts: f.VInsts,
		})
	}
	return rows, &hotTotals{
		TotalCycles:    lp.TotalCycles,
		DispatchCycles: lp.DispatchCycles,
		VMCycles:       lp.VMCycles,
		Activations:    lp.Activations,
		SpanP50:        lp.SpanP50,
		SpanP95:        lp.SpanP95,
		SpanP99:        lp.SpanP99,
	}
}

// handleHealthz reports process liveness.
func (p *Plane) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 200 once the owner called
// SetReady(true), 503 before.
func (p *Plane) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !p.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "not ready")
		return
	}
	fmt.Fprintln(w, "ready")
}

// writeJSON marshals v with indentation and writes it, logging (not
// masking) encode failures.
func writeJSON(w http.ResponseWriter, log *slog.Logger, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Warn("json encode failed", "err", err)
	}
}
