// Package serve is the multi-tenant VM service: an admission-controlled
// run queue in front of a bounded worker pool that round-robins
// preemptible guest sessions, one scheduler quantum at a time. The
// co-designed VM's checkpoint contract (DESIGN.md §11) makes a quantum
// cheap and safe: a session is descheduled by encoding its complete
// architected state, and resumed by restoring it into a fresh VM whose
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
	"strconv"
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
	// MaxResident bounds checkpoints held in memory; beyond it the
	// coldest ready sessions spill to SpillDir. 0 is unlimited.
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
	// Plane is the telemetry plane sessions register with; nil creates
	// a private one (owned and closed by the server).
	Plane *telemetry.Plane
	// Store is the shared fragment store; nil creates a private one.
	// Sharing it across sessions means a hot superblock is translated
	// once per server, not once per quantum.
	Store *fragstore.Store
	// Logger receives scheduler diagnostics; nil discards them.
	Logger *slog.Logger
}

// Server schedules admitted sessions over the worker pool.
type Server struct {
	opts     Options
	plane    *telemetry.Plane
	ownPlane bool
	store    *fragstore.Store
	log      *slog.Logger
	reg      *metrics.Registry // scheduler instruments, registered on the plane
	fs       iofs.FS           // every persistence path goes through this

	draining atomic.Bool // preempts running quanta and rejects admissions

	mu       sync.Mutex
	sessions map[string]*Session // every session ever admitted, for lookup
	live     map[string]*Session // non-terminal sessions; finishSession removes
	order    []string            // admission order, for listing
	byTenant map[string]int
	nextID   int
	resident int // in-memory checkpoints (ready, not spilled)

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
	s := &Server{
		opts:     opts,
		plane:    opts.Plane,
		store:    opts.Store,
		log:      log,
		reg:      metrics.NewRegistry(),
		fs:       iofs.Default(opts.FS),
		sessions: make(map[string]*Session),
		live:     make(map[string]*Session),
		byTenant: make(map[string]int),
		runq:     make(chan *Session, opts.MaxSessions),
		quit:     make(chan struct{}),
	}
	if s.plane == nil {
		s.plane = telemetry.New(telemetry.Options{Logger: log})
		s.ownPlane = true
	}
	if s.store == nil {
		s.store = fragstore.New()
	}
	// The scheduler's own instruments render on /metrics as a parked
	// pseudo-session: no VM ever publishes a snapshot for it, so the
	// exposition skips the vm.* section and renders only the registry.
	sched := s.plane.Register(telemetry.SessionConfig{
		Name: "scheduler", Registry: s.reg, Store: s.store,
	})
	sched.Park()
	s.plane.SetReady(true)
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Plane returns the telemetry plane sessions register with.
func (s *Server) Plane() *telemetry.Plane { return s.plane }

// Registry returns the scheduler's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Submit admits a program image as a new session, or rejects it with
// ErrDraining, ErrQueueFull, or ErrTenantQuota.
func (s *Server) Submit(prog *alphaprog.Program, tenant, name string) (*Session, error) {
	if s.draining.Load() {
		s.reg.Counter("serve.rejected.draining").Inc()
		return nil, ErrDraining
	}
	s.mu.Lock()
	if len(s.live) >= s.opts.MaxSessions {
		s.mu.Unlock()
		s.reg.Counter("serve.rejected.full").Inc()
		return nil, ErrQueueFull
	}
	if s.opts.TenantQuota > 0 && s.byTenant[tenant] >= s.opts.TenantQuota {
		s.mu.Unlock()
		s.reg.Counter("serve.rejected.quota").Inc()
		return nil, ErrTenantQuota
	}
	if s.opts.TenantPageQuota > 0 && s.tenantPagesLocked(tenant) >= s.opts.TenantPageQuota {
		s.mu.Unlock()
		s.reg.Counter("serve.rejected.pages").Inc()
		return nil, fmt.Errorf("%w: tenant %q holds its page quota (%d pages)",
			ErrTenantQuota, tenant, s.opts.TenantPageQuota)
	}
	s.nextID++
	sess := &Session{
		ID:       strconv.Itoa(s.nextID),
		Tenant:   tenant,
		Name:     name,
		prog:     prog,
		reg:      metrics.NewRegistry(),
		state:    StateQueued,
		admitted: time.Now(),
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	s.sessions[sess.ID] = sess
	s.live[sess.ID] = sess
	s.order = append(s.order, sess.ID)
	s.byTenant[tenant]++
	s.mu.Unlock()

	sess.tsess = s.plane.Register(telemetry.SessionConfig{
		Name: name + " #" + sess.ID, Workload: name, Registry: sess.reg,
	})
	sess.tsess.Park() // no VM until the first quantum
	s.reg.Counter("serve.admitted").Inc()
	s.updateGauges()
	s.enqueue(sess)
	s.log.Info("session admitted", "session", sess.ID, "tenant", tenant, "name", name)
	return sess, nil
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
	qh := s.reg.Histogram("serve.quantum_ms")
	wh := s.reg.Histogram("serve.wait_ms")
	rejected := s.reg.Counter("serve.rejected.full").Load() +
		s.reg.Counter("serve.rejected.quota").Load() +
		s.reg.Counter("serve.rejected.pages").Load() +
		s.reg.Counter("serve.rejected.draining").Load()
	return Stats{
		Workers:       s.opts.Workers,
		QueueDepth:    len(s.runq),
		Live:          live,
		Admitted:      s.reg.Counter("serve.admitted").Load(),
		Completed:     s.reg.Counter("serve.completed").Load(),
		Failed:        s.reg.Counter("serve.failed").Load(),
		Killed:        s.reg.Counter("serve.killed").Load(),
		Crashed:       s.reg.Counter("serve.crashed").Load(),
		Rejected:      rejected,
		Quanta:        s.reg.Counter("serve.quanta").Load(),
		Spills:        s.reg.Counter("serve.spills").Load(),
		ResourceKills: s.reg.Counter("serve.resource_kills").Load(),
		IOFaults:      s.reg.Counter("serve.io_faults").Load(),
		Bundles:       s.reg.Counter("serve.bundles").Load(),
		PagesResident: pages,
		QuantumP50ms:  qh.Quantile(0.50),
		QuantumP95ms:  qh.Quantile(0.95),
		QuantumP99ms:  qh.Quantile(0.99),
		WaitP50ms:     wh.Quantile(0.50),
		WaitP99ms:     wh.Quantile(0.99),
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
	s.reg.Gauge("serve.queue_depth").Set(float64(len(s.runq)))
	s.reg.Gauge("serve.sessions_queued").Set(float64(queued))
	s.reg.Gauge("serve.sessions_running").Set(float64(running))
	s.reg.Gauge("serve.sessions_ready").Set(float64(ready))
	s.reg.Gauge("serve.sessions_spilled").Set(float64(spilled))
	s.reg.Gauge("serve.sessions_live").Set(float64(live))
	s.reg.Gauge("serve.pages_resident").Set(float64(pages))
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
		if err := s.spillForDrain(sess); err != nil {
			s.noteIOFault("drain spill", sess.ID, err)
			s.bundleDrainFailure(sess, err)
			s.failSession(sess, "drain spill: "+err.Error())
			continue
		}
		spilled++
	}
	s.log.Info("drained", "spilled", spilled)
	return spilled, nil
}

// Close shuts the server down without the spill protocol: workers stop
// and, when the plane is server-owned, the plane closes too. Tests and
// in-process embedders use it; production shutdown goes through Drain.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.draining.CompareAndSwap(false, true) {
			close(s.quit)
		}
		s.wg.Wait()
		if s.ownPlane {
			s.plane.Close()
		}
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
			s.reg.Counter("serve.resume.corrupt").Inc()
			s.log.Warn("resume: corrupt checkpoint", "session", sess.ID, "err", decodeErr)
			continue
		}
		resumed++
		s.reg.Counter("serve.resume.sessions").Inc()
		// The checkpoint now lives in memory under a fresh session ID;
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
			s.reg.Counter("serve.resume.orphans").Inc()
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
// spilled checkpoint resident in memory.
func (s *Server) adopt(meta *spillMeta, ckpt []byte, decodeErr error) *Session {
	s.mu.Lock()
	s.nextID++
	sess := &Session{
		ID:       strconv.Itoa(s.nextID),
		Tenant:   meta.Tenant,
		Name:     meta.Name,
		reg:      metrics.NewRegistry(),
		state:    StateQueued,
		admitted: time.Now(),
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	sess.quanta = meta.Quanta
	sess.vinsts = meta.VInsts
	sess.ckpt = ckpt
	s.sessions[sess.ID] = sess
	s.live[sess.ID] = sess
	s.order = append(s.order, sess.ID)
	s.byTenant[sess.Tenant]++
	if ckpt != nil {
		s.resident++
	}
	s.mu.Unlock()
	sess.tsess = s.plane.Register(telemetry.SessionConfig{
		Name: sess.Name + " #" + sess.ID + " (resumed)", Workload: sess.Name, Registry: sess.reg,
	})
	sess.tsess.Park()
	if decodeErr != nil {
		s.failSession(sess, "checkpoint: "+decodeErr.Error())
		return sess
	}
	s.reg.Counter("serve.admitted").Inc()
	s.enqueue(sess)
	return sess
}
