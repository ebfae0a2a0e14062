// Package serve is the multi-tenant VM service: an admission-controlled
// run queue in front of a bounded worker pool that round-robins
// preemptible guest sessions, one scheduler quantum at a time. Each
// session keeps its live VM across quanta, so a quantum is a Stop-hook
// preemption and a later Run of the same VM. The co-designed VM's
// checkpoint contract (DESIGN.md §11) is used only where bytes are
// needed — a shedding spill, a drain, the final state, a flight bundle:
// a spilled or resumed session is restored into a fresh VM whose
// concealed state — translation cache, counters, RAS — is rebuilt on
// demand, with the process-wide fragment store ensuring hot superblocks
// still translate only once per server. DESIGN.md §14 documents the
// state machine, overload policy, and drain protocol.
package serve

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/iofs"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/telemetry"
)

// Admission-control sentinels. The HTTP layer maps them to typed
// rejections: ErrQueueFull and ErrTenantQuota are 429s (retryable —
// capacity frees as sessions finish), ErrDraining is a 503 (this
// instance is going away; retry against its successor).
var (
	ErrQueueFull   = errors.New("serve: run queue full")
	ErrTenantQuota = errors.New("serve: tenant quota exceeded")
	ErrDraining    = errors.New("serve: draining, not admitting")
)

// ErrNoSession is returned for lookups of unknown session IDs.
var ErrNoSession = errors.New("serve: no such session")

// Default scheduling parameters.
const (
	// DefaultQuantumVInsts is the scheduler quantum in V-instructions.
	// Small enough that a dozen runnable sessions all make visible
	// progress each second, large enough to amortize VM entry/exit.
	DefaultQuantumVInsts = 50_000
	// DefaultMaxSessions bounds concurrently-admitted live sessions
	// (and therefore the run-queue depth).
	DefaultMaxSessions = 1024
)

// Options configures a Server.
type Options struct {
	// Workers is the worker-pool size; 0 derives it from GOMAXPROCS.
	Workers int
	// QuantumVInsts is the scheduler quantum in V-instructions
	// (default DefaultQuantumVInsts).
	QuantumVInsts int64
	// MaxSessions bounds live (non-terminal) sessions; admission beyond
	// it is rejected with ErrQueueFull (default DefaultMaxSessions).
	MaxSessions int
	// TenantQuota bounds live sessions per tenant; 0 is unlimited.
	TenantQuota int
	// SessionVBudget caps a session's cumulative V-instructions across
	// all quanta; exhaustion fails the session. 0 is unlimited.
	SessionVBudget int64
	// SessionWall caps a session's wall-clock lifetime from admission;
	// a session past its deadline fails at its next quantum boundary.
	// 0 is unlimited.
	SessionWall time.Duration
	// QuantumWall is a per-quantum wall-clock safety net: a timer that
	// forces descheduling even if the guest is cheap per V-inst. 0
	// disables it (the V-inst quantum still preempts).
	QuantumWall time.Duration
	// MaxResident bounds the sessions held in memory between quanta
	// (ready sessions keeping their VM); beyond it the coldest ready
	// sessions are checkpointed to SpillDir and their VMs released. 0 is
	// unlimited.
	MaxResident int
	// SpillDir receives overload spills and the drain checkpoint set.
	// Required when MaxResident > 0 or Drain must preserve sessions.
	SpillDir string
	// FS is the filesystem every persistence path goes through — spill,
	// drain, resume, and bundle writes. nil means the durable host
	// filesystem (iofs.OS); the disk-chaos harnesses inject an
	// iofs.Faulty here (DESIGN.md §15).
	FS iofs.FS
	// BundleDir, when set, receives a flight-recorder crash-repro
	// bundle (internal/flight) for failed sessions: guest traps,
	// resource kills, budget exhaustion, quarantined panics, and drain
	// spills lost to I/O faults. Empty disables recording.
	BundleDir string
	// SessionMaxPages caps each session's guest-resident pages
	// (vm.Config.MaxPages): the offending guest dies with a precise,
	// typed resource trap at its faulting V-PC while siblings run on.
	// 0 is ungoverned.
	SessionMaxPages int
	// TenantPageQuota bounds the sum of last-observed resident pages
	// across a tenant's live sessions. Admission past the quota is
	// rejected with ErrTenantQuota; a running tenant that grows past it
	// has the session whose quantum pushed it over failed, typed, at
	// that quantum boundary. 0 is unlimited.
	TenantPageQuota int
	// Logger receives scheduler diagnostics; nil discards them.
	Logger *slog.Logger
}

// Server schedules admitted sessions over the worker pool. It owns its
// telemetry plane, whose registry carries the scheduler instruments,
// and one fragment store shared by every session, so a hot superblock
// is translated once per server, not once per quantum.
type Server struct {
	opts  Options
	plane *telemetry.Plane
	store *fragstore.Store
	log   *slog.Logger
	m     instruments
	fs    iofs.FS // every persistence path goes through this

	draining atomic.Bool // preempts running quanta and rejects admissions

	mu       sync.Mutex
	sessions map[string]*Session // every session ever admitted, for lookup
	live     map[string]*Session // non-terminal sessions; finishSession removes
	order    []string            // admission order, for listing
	byTenant map[string]int

	runq chan *Session
	quit chan struct{}
	wg   sync.WaitGroup

	closeOnce sync.Once

	// hookQuantum, when set by tests, runs on the worker goroutine at
	// the top of every quantum — the crash-barrier tests panic in it.
	hookQuantum func(*Session)
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QuantumVInsts <= 0 {
		opts.QuantumVInsts = DefaultQuantumVInsts
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	store := fragstore.New()
	plane := telemetry.New(telemetry.Options{Logger: log, Store: store})
	s := &Server{
		opts:     opts,
		plane:    plane,
		store:    store,
		log:      log,
		m:        newInstruments(plane.Registry()),
		fs:       iofs.Default(opts.FS),
		sessions: make(map[string]*Session),
		live:     make(map[string]*Session),
		byTenant: make(map[string]int),
		runq:     make(chan *Session, opts.MaxSessions),
		quit:     make(chan struct{}),
	}
	s.plane.SetReady(true)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// instruments are the scheduler's series, each declared once here on
// the plane registry; /metrics renders them without labels.
type instruments struct {
	admitted, completed, failed, killed, crashed                 *metrics.Counter
	rejectedFull, rejectedQuota, rejectedPages, rejectedDraining *metrics.Counter
	quanta, preempts, spills, spillLoads                         *metrics.Counter
	resourceKills, ioFaults, bundles                             *metrics.Counter
	resumeSessions, resumeCorrupt, resumeOrphans                 *metrics.Counter

	queueDepth, pagesResident             *metrics.Gauge
	queued, running, ready, spilled, live *metrics.Gauge
	quantumMS, waitMS                     *metrics.Histogram
}

// newInstruments registers the scheduler instruments on reg.
func newInstruments(reg *metrics.Registry) instruments {
	return instruments{
		admitted:         reg.Counter("serve.admitted"),
		completed:        reg.Counter("serve.completed"),
		failed:           reg.Counter("serve.failed"),
		killed:           reg.Counter("serve.killed"),
		crashed:          reg.Counter("serve.crashed"),
		rejectedFull:     reg.Counter("serve.rejected.full"),
		rejectedQuota:    reg.Counter("serve.rejected.quota"),
		rejectedPages:    reg.Counter("serve.rejected.pages"),
		rejectedDraining: reg.Counter("serve.rejected.draining"),
		quanta:           reg.Counter("serve.quanta"),
		preempts:         reg.Counter("serve.preempts"),
		spills:           reg.Counter("serve.spills"),
		spillLoads:       reg.Counter("serve.spill_loads"),
		resourceKills:    reg.Counter("serve.resource_kills"),
		ioFaults:         reg.Counter("serve.io_faults"),
		bundles:          reg.Counter("serve.bundles"),
		resumeSessions:   reg.Counter("serve.resume.sessions"),
		resumeCorrupt:    reg.Counter("serve.resume.corrupt"),
		resumeOrphans:    reg.Counter("serve.resume.orphans"),
		queueDepth:       reg.Gauge("serve.queue_depth"),
		pagesResident:    reg.Gauge("serve.pages_resident"),
		queued:           reg.Gauge("serve.sessions_queued"),
		running:          reg.Gauge("serve.sessions_running"),
		ready:            reg.Gauge("serve.sessions_ready"),
		spilled:          reg.Gauge("serve.sessions_spilled"),
		live:             reg.Gauge("serve.sessions_live"),
		quantumMS:        reg.Histogram("serve.quantum_ms"),
		waitMS:           reg.Histogram("serve.wait_ms"),
	}
}

// Registry returns the scheduler's metrics registry, the plane's
// process-level one.
func (s *Server) Registry() *metrics.Registry { return s.plane.Registry() }

// Submit admits a program image as a new session, or rejects it with
// ErrDraining, ErrQueueFull, or ErrTenantQuota.
func (s *Server) Submit(prog *alphaprog.Program, tenant, name string) (*Session, error) {
	if s.draining.Load() {
		s.m.rejectedDraining.Inc()
		return nil, ErrDraining
	}
	s.mu.Lock()
	if len(s.live) >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.m.rejectedFull.Inc()
		return nil, ErrQueueFull
	}
	if s.opts.TenantQuota > 0 && s.byTenant[tenant] >= s.opts.TenantQuota {
		s.mu.Unlock()
		s.m.rejectedQuota.Inc()
		return nil, ErrTenantQuota
	}
	if s.opts.TenantPageQuota > 0 && s.tenantPagesLocked(tenant) >= s.opts.TenantPageQuota {
		s.mu.Unlock()
		s.m.rejectedPages.Inc()
		return nil, fmt.Errorf("%w: tenant %q holds its page quota (%d pages)",
			ErrTenantQuota, tenant, s.opts.TenantPageQuota)
	}
	sess := &Session{Tenant: tenant, Name: name, prog: prog}
	s.admitLocked(sess, name)
	s.mu.Unlock()

	s.m.admitted.Inc()
	s.updateGauges()
	s.enqueue(sess)
	s.log.Info("session admitted", "session", sess.ID, "tenant", tenant, "name", name)
	return sess, nil
}

// admitLocked registers sess with the plane and the session tables as
// a queued session. Its ID is its plane registration's ID, taken under
// s.mu, so /sessions/{id} and /vms/{id} name the same guest. The caller
// holds s.mu.
func (s *Server) admitLocked(sess *Session, label string) {
	sess.reg = metrics.NewRegistry()
	sess.tsess = s.plane.Register(telemetry.SessionConfig{
		Name: label, Workload: sess.Name, Registry: sess.reg,
	})
	sess.ID = sess.tsess.ID()
	sess.state = StateQueued
	sess.admitted = time.Now()
	sess.enqueued = sess.admitted
	sess.done = make(chan struct{})
	s.sessions[sess.ID] = sess
	s.live[sess.ID] = sess
	s.order = append(s.order, sess.ID)
	s.byTenant[sess.Tenant]++
}

// enqueue appends the session to the run queue. The queue is sized to
// MaxSessions and every live session occupies at most one slot, so the
// send cannot block; the fallback fails the session loudly rather than
// deadlocking a worker if that invariant is ever broken.
func (s *Server) enqueue(sess *Session) {
	select {
	case s.runq <- sess:
	default:
		s.failSession(sess, "scheduler invariant broken: run queue overflow")
	}
}

// tenantPagesLocked sums the last-observed guest-resident pages across
// a tenant's live sessions — the quantity TenantPageQuota governs.
// The caller holds s.mu.
func (s *Server) tenantPagesLocked(tenant string) int {
	total := 0
	for _, sess := range s.live {
		if sess.Tenant != tenant {
			continue
		}
		sess.mu.Lock()
		if !sess.state.Terminal() {
			total += sess.pages
		}
		sess.mu.Unlock()
	}
	return total
}

// Session looks up a session by ID.
func (s *Server) Session(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, ErrNoSession
	}
	return sess, nil
}

// SessionViews lists every session in admission order.
func (s *Server) SessionViews() []View {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	m := s.sessions
	views := make([]*Session, 0, len(ids))
	for _, id := range ids {
		if sess, ok := m[id]; ok {
			views = append(views, sess)
		}
	}
	s.mu.Unlock()
	out := make([]View, len(views))
	for i, sess := range views {
		out[i] = sess.view()
	}
	return out
}

// Stats is the scheduler snapshot served on /stats and consumed by the
// load driver.
type Stats struct {
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	Live       int    `json:"live"`
	Admitted   uint64 `json:"admitted"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Killed     uint64 `json:"killed"`
	Crashed    uint64 `json:"crashed"`
	Rejected   uint64 `json:"rejected"`
	Quanta     uint64 `json:"quanta"`
	Spills     uint64 `json:"spills"`
	// ResourceKills counts sessions failed by the page governor: a
	// per-session MaxPages trap or a tenant page-quota boundary kill.
	ResourceKills uint64 `json:"resource_kills"`
	// IOFaults counts persistence operations (spill, load, drain,
	// bundle) that failed; each is a typed, session-local degradation.
	IOFaults uint64 `json:"io_faults"`
	// Bundles counts flight-recorder bundles written to BundleDir.
	Bundles uint64 `json:"bundles"`
	// PagesResident is the current sum of last-observed guest pages
	// across live sessions.
	PagesResident int     `json:"pages_resident"`
	QuantumP50ms  float64 `json:"quantum_p50_ms"`
	QuantumP95ms  float64 `json:"quantum_p95_ms"`
	QuantumP99ms  float64 `json:"quantum_p99_ms"`
	WaitP50ms     float64 `json:"wait_p50_ms"`
	WaitP99ms     float64 `json:"wait_p99_ms"`
}

// Stats snapshots the scheduler counters and latency quantiles.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	live := len(s.live)
	var pages int
	for _, sess := range s.live {
		sess.mu.Lock()
		if !sess.state.Terminal() {
			pages += sess.pages
		}
		sess.mu.Unlock()
	}
	s.mu.Unlock()
	m := &s.m
	rejected := m.rejectedFull.Load() + m.rejectedQuota.Load() +
		m.rejectedPages.Load() + m.rejectedDraining.Load()
	return Stats{
		Workers:       s.opts.Workers,
		QueueDepth:    len(s.runq),
		Live:          live,
		Admitted:      m.admitted.Load(),
		Completed:     m.completed.Load(),
		Failed:        m.failed.Load(),
		Killed:        m.killed.Load(),
		Crashed:       m.crashed.Load(),
		Rejected:      rejected,
		Quanta:        m.quanta.Load(),
		Spills:        m.spills.Load(),
		ResourceKills: m.resourceKills.Load(),
		IOFaults:      m.ioFaults.Load(),
		Bundles:       m.bundles.Load(),
		PagesResident: pages,
		QuantumP50ms:  m.quantumMS.Quantile(0.50),
		QuantumP95ms:  m.quantumMS.Quantile(0.95),
		QuantumP99ms:  m.quantumMS.Quantile(0.99),
		WaitP50ms:     m.waitMS.Quantile(0.50),
		WaitP99ms:     m.waitMS.Quantile(0.99),
	}
}

// updateGauges refreshes the scheduler gauges from the live sessions.
// It runs on every quantum, so it scans only the live set, never the
// finished sessions kept for lookup.
func (s *Server) updateGauges() {
	s.mu.Lock()
	var queued, running, ready, spilled, pages int
	for _, sess := range s.live {
		sess.mu.Lock()
		switch sess.state {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		case StateReady:
			ready++
			if sess.spilled {
				spilled++
			}
		}
		if !sess.state.Terminal() {
			pages += sess.pages
		}
		sess.mu.Unlock()
	}
	live := len(s.live)
	s.mu.Unlock()
	s.m.queueDepth.Set(float64(len(s.runq)))
	s.m.queued.Set(float64(queued))
	s.m.running.Set(float64(running))
	s.m.ready.Set(float64(ready))
	s.m.spilled.Set(float64(spilled))
	s.m.live.Set(float64(live))
	s.m.pagesResident.Set(float64(pages))
}

// Draining reports whether the server has begun draining.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain executes the graceful-shutdown protocol: stop admitting (new
// submissions get ErrDraining, /readyz flips to 503), preempt every
// running quantum at its next V-instruction boundary, stop the worker
// pool, and checkpoint every unfinished session into SpillDir — each as
// <id>.ckpt plus an <id>.json meta sidecar — so a restarted server can
// Resume them. Sessions that never ran a quantum are booted just far
// enough to capture their initial architected state. Drain returns the
// number of sessions spilled.
func (s *Server) Drain() (int, error) {
	if !s.draining.CompareAndSwap(false, true) {
		return 0, nil
	}
	s.plane.SetReady(false)
	close(s.quit)
	s.wg.Wait()

	s.mu.Lock()
	var pending []*Session
	for _, id := range s.order {
		sess := s.sessions[id]
		sess.mu.Lock()
		terminal := sess.state.Terminal()
		sess.mu.Unlock()
		if !terminal {
			pending = append(pending, sess)
		}
	}
	s.mu.Unlock()

	if len(pending) == 0 {
		return 0, nil
	}
	if s.opts.SpillDir == "" {
		return 0, fmt.Errorf("serve: %d sessions in flight but no spill dir configured", len(pending))
	}
	if err := s.fs.MkdirAll(s.opts.SpillDir, 0o755); err != nil {
		return 0, err
	}
	spilled := 0
	for _, sess := range pending {
		if enc, err := s.spillForDrain(sess); err != nil {
			s.noteIOFault("drain spill", sess.ID, err)
			s.bundleDrainFailure(sess, enc, err)
			s.failSession(sess, "drain spill: "+err.Error())
			continue
		}
		spilled++
	}
	s.log.Info("drained", "spilled", spilled)
	return spilled, nil
}

// Close shuts the server down without the spill protocol: workers stop
// and the plane closes. Tests and in-process embedders use it;
// production shutdown goes through Drain.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.draining.CompareAndSwap(false, true) {
			close(s.quit)
		}
		s.wg.Wait()
		s.plane.Close()
	})
}

// spillMeta is the JSON sidecar describing one spilled session.
type spillMeta struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Quanta int    `json:"quanta"`
	VInsts uint64 `json:"v_insts"`
}

// Resume re-admits every session spilled into dir by a previous Drain.
// A checkpoint that fails to decode (truncated, corrupted, wrong
// version — any typed checkpoint error) becomes a session admitted
// directly into StateFailed carrying the decode error, mirroring a 409:
// the client sees exactly why its session is gone, and the server keeps
// serving. A checkpoint without its JSON sidecar — the wreckage of a
// drain that crashed between its two writes — is counted as an orphan
// (serve.resume.orphans) and swept, as are interrupted atomic-write
// temporaries. Resume returns (resumed, corrupt) counts.
func (s *Server) Resume(dir string) (int, int, error) {
	metas, err := s.fs.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, 0, err
	}
	sort.Strings(metas)
	sidecars := make(map[string]bool, len(metas))
	for _, m := range metas {
		sidecars[m] = true
	}
	resumed, corrupt := 0, 0
	for _, metaPath := range metas {
		meta, err := readSpillMeta(s.fs, metaPath)
		if err != nil {
			s.log.Error("resume: bad meta", "path", metaPath, "err", err)
			corrupt++
			continue
		}
		raw, err := s.fs.ReadFile(filepath.Join(dir, meta.ID+".ckpt"))
		var decodeErr error
		if err != nil {
			decodeErr = err
		} else if _, err := checkpoint.Decode(raw); err != nil {
			decodeErr = err
		}
		sess := s.adopt(meta, raw, decodeErr)
		if decodeErr != nil {
			corrupt++
			s.m.resumeCorrupt.Inc()
			s.log.Warn("resume: corrupt checkpoint", "session", sess.ID, "err", decodeErr)
			continue
		}
		resumed++
		s.m.resumeSessions.Inc()
		// The checkpoint is now the origin of a session with a fresh ID;
		// consume the spill files so a later drain of this server can't
		// collide with (or double-resume) the previous generation's.
		s.fs.Remove(filepath.Join(dir, meta.ID+".ckpt"))
		s.fs.Remove(metaPath)
	}
	// Orphan sweep: a drain interrupted between its checkpoint write and
	// its sidecar write leaves a .ckpt no sidecar names. There is no
	// session identity to adopt it under, so it is counted and removed —
	// never silently accumulated, never parsed.
	if cks, err := s.fs.Glob(filepath.Join(dir, "*.ckpt")); err == nil {
		sort.Strings(cks)
		for _, p := range cks {
			id := strings.TrimSuffix(filepath.Base(p), ".ckpt")
			if sidecars[filepath.Join(dir, id+".json")] {
				continue // corrupt pair left in place above, not an orphan
			}
			s.m.resumeOrphans.Inc()
			s.log.Warn("resume: orphan checkpoint without sidecar", "path", p)
			s.fs.Remove(p)
		}
	}
	// Interrupted atomic writes leave .tmp files; they were never
	// renamed into place, so they name nothing and are swept.
	if tmps, err := s.fs.Glob(filepath.Join(dir, "*"+iofs.TempSuffix)); err == nil {
		for _, p := range tmps {
			s.fs.Remove(p)
		}
	}
	s.updateGauges()
	return resumed, corrupt, nil
}

// adopt registers a spilled session under a fresh ID. With a decode
// error it lands terminal (StateFailed); otherwise it enqueues with the
// spilled checkpoint as its origin, restored on its first quantum.
func (s *Server) adopt(meta *spillMeta, origin []byte, decodeErr error) *Session {
	sess := &Session{
		Tenant: meta.Tenant, Name: meta.Name,
		quanta: meta.Quanta, vinsts: meta.VInsts, origin: origin,
	}
	s.mu.Lock()
	s.admitLocked(sess, meta.Name+" (resumed)")
	s.mu.Unlock()
	if decodeErr != nil {
		s.failSession(sess, "checkpoint: "+decodeErr.Error())
		return sess
	}
	s.m.admitted.Inc()
	s.enqueue(sess)
	return sess
}
