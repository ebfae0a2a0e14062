package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/vm"
)

// Live is one introspection snapshot of a VM session, captured on the
// VM goroutine at a V-instruction boundary, so every field is a
// consistent copy: no lock is shared with the run loop and no field
// aliases memory the VM still writes.
type Live struct {
	// Stats is a copy of the VM's execution statistics.
	Stats vm.Stats `json:"stats"`
	// Preemptions is the VM's preemption count (vm.VM.Preemptions).
	Preemptions uint64 `json:"preemptions"`
	// VPC is the V-ISA program counter at the snapshot boundary.
	VPC uint64 `json:"vpc"`
	// Halted reports whether the guest executed its exit call;
	// ExitStatus is its exit value (meaningful only when Halted).
	Halted bool `json:"halted"`
	// ExitStatus is the guest's exit value.
	ExitStatus uint64 `json:"exit_status"`
	// TCache is the translation-cache occupancy at the boundary.
	TCache tcache.Occupancy `json:"tcache"`
	// Pages is the guest-resident page count at the boundary, the
	// quantity governed by vm.Config.MaxPages (DESIGN.md §15).
	Pages int `json:"pages"`
	// Hot is the live hot-fragment profile, nil when the session runs
	// without a profiler.
	Hot *prof.Profile `json:"-"`
}

// SessionConfig describes a VM session being registered with a Plane.
type SessionConfig struct {
	// Name is a human-readable session name ("gzip/ildp-mod seed=3").
	Name string
	// Workload and Machine label the session's metric samples.
	Workload string
	Machine  string
	// Registry is the session's metrics registry; the plane taps its
	// event stream and renders it on /metrics. May be nil.
	Registry *metrics.Registry
	// Store is the fragment store the session translates through, for
	// shard occupancy reporting. May be nil.
	Store *fragstore.Store
}

// Session is one registered VM run. The introspection protocol is
// pull-based and runs entirely on the VM goroutine: an HTTP handler
// calls State, which arms the want flag and waits; the VM's Config.Poll
// hook (Session.Poll) observes the flag at the next V-instruction
// boundary, runs the probe there, caches the result, and wakes every
// waiter. The attached-but-idle cost is therefore one atomic load per
// poll site, and the VM's state is only ever read by the VM goroutine.
type Session struct {
	id       int
	name     string
	workload string
	machine  string
	started  time.Time
	reg      *metrics.Registry
	store    *fragstore.Store

	// cancelTap detaches the plane's registry subscription; set by
	// Plane.Register, called on deregistration.
	cancelTap func()

	// want is armed by State and cleared by the probe service; it is
	// the only word the VM goroutine reads when nobody is looking.
	want atomic.Bool

	// parked marks a session whose VM is not currently executing (a
	// scheduler descheduled it between quanta): no goroutine will reach
	// a poll boundary, so State serves the cached snapshot immediately
	// instead of waiting out its probe timeout. The owner publishes a
	// final snapshot with Publish before parking.
	parked atomic.Bool

	mu      sync.Mutex
	probe   func() Live
	last    Live
	lastAt  time.Time
	hasLast bool
	done    bool
	waiters []chan struct{}
}

// ID returns the plane-assigned session identifier.
func (s *Session) ID() string { return strconv.Itoa(s.id) }

// Done reports whether the session has finished.
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Poll is the session's vm.Config.Poll hook: a single atomic load when
// no snapshot is wanted, and a probe run at the current V-instruction
// boundary when one is. Install it with cfg.Poll = sess.Poll before
// constructing the VM.
func (s *Session) Poll() {
	if !s.want.Load() {
		return
	}
	s.service()
}

// service runs the probe on the calling (VM) goroutine, caches the
// snapshot, and wakes every waiter. Split from Poll so the fast path
// stays inlineable.
func (s *Session) service() {
	s.mu.Lock()
	probe := s.probe
	s.mu.Unlock()
	if probe == nil {
		// Armed before Attach (e.g. between segments of a kill-resume
		// soak): leave want set; waiters fall back to the cached state.
		return
	}
	live := probe()
	s.mu.Lock()
	s.last, s.lastAt, s.hasLast = live, time.Now(), true
	waiters := s.waiters
	s.waiters = nil
	s.want.Store(false)
	s.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
}

// Attach installs the standard VM probe for v (and p, which may be nil
// to skip the hot table) and seeds the cached state with an immediate
// probe. Call it from the goroutine that will run the VM, after the
// program is loaded and before Run.
func (s *Session) Attach(v *vm.VM, p *prof.Profiler) {
	s.SetProbe(ProbeVM(v, p))
	s.service0()
}

// SetProbe installs a custom probe. The probe is only ever invoked on
// the goroutine that calls Poll, Attach, or Finish, so it may read VM
// state without synchronization; it must return copies, not aliases.
func (s *Session) SetProbe(probe func() Live) {
	s.mu.Lock()
	s.probe = probe
	s.mu.Unlock()
}

// service0 runs the probe once unconditionally to seed or refresh the
// cached state.
func (s *Session) service0() {
	s.want.Store(true)
	s.service()
}

// Publish caches a snapshot captured by the session's owner (a
// scheduler that just checkpointed the VM at a quantum boundary) and
// wakes every State waiter. It is the push-mode complement to the
// pull probe: between scheduler quanta no goroutine reaches a poll
// boundary, so the owner pushes the descheduled state instead.
func (s *Session) Publish(live Live) {
	s.mu.Lock()
	s.last, s.lastAt, s.hasLast = live, time.Now(), true
	waiters := s.waiters
	s.waiters = nil
	s.want.Store(false)
	s.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
}

// Park marks the session descheduled: until Unpark, State returns the
// cached snapshot immediately rather than arming the probe and waiting
// for a poll boundary that cannot arrive. Call Publish first so the
// cache holds the state the session was descheduled with.
func (s *Session) Park() { s.parked.Store(true) }

// Unpark re-enables the pull probe; the scheduler calls it when the
// session's next quantum starts executing (with Poll installed).
func (s *Session) Unpark() { s.parked.Store(false) }

// Finish captures a final snapshot via the current probe (on the
// caller's goroutine, which must be the VM goroutine) and marks the
// session done. Waiters are woken; later State calls return the final
// state immediately. Safe to call more than once.
func (s *Session) Finish() {
	s.mu.Lock()
	probe := s.probe
	s.mu.Unlock()
	var live Live
	captured := false
	if probe != nil {
		live = probe()
		captured = true
	}
	s.mu.Lock()
	if captured {
		s.last, s.lastAt, s.hasLast = live, time.Now(), true
	}
	s.done = true
	waiters := s.waiters
	s.waiters = nil
	s.want.Store(false)
	s.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
}

// State returns the session's introspection snapshot. For a live
// session it requests a fresh probe and waits up to wait for the VM to
// reach a poll boundary, falling back to the cached snapshot on
// timeout; for a finished session it returns the final state
// immediately. fresh reports whether the returned state was captured by
// this request (or is final); at is its capture time; ok is false when
// no snapshot has ever been captured.
func (s *Session) State(wait time.Duration) (live Live, at time.Time, fresh, ok bool) {
	s.mu.Lock()
	if s.done {
		live, at, ok = s.last, s.lastAt, s.hasLast
		s.mu.Unlock()
		return live, at, true, ok
	}
	if s.parked.Load() {
		// Descheduled: no VM goroutine will service a probe, so waiting
		// would only stall the scrape. The cached snapshot is exactly the
		// state the session was parked with.
		live, at, ok = s.last, s.lastAt, s.hasLast
		s.mu.Unlock()
		return live, at, false, ok
	}
	w := make(chan struct{})
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	s.want.Store(true)
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w:
		fresh = true
	case <-timer.C:
	}
	s.mu.Lock()
	live, at, ok = s.last, s.lastAt, s.hasLast
	s.mu.Unlock()
	return live, at, fresh, ok
}

// ProbeVM returns the standard probe for a VM: Stats, the precise V-PC,
// halt state, translation-cache occupancy, and (when p is a live
// profiler) the hot-fragment profile. The returned closure must only
// run on the VM goroutine; every field it returns is a copy.
func ProbeVM(v *vm.VM, p *prof.Profiler) func() Live {
	return func() Live {
		cpu := v.CPU()
		live := Live{
			Stats:       v.Stats,
			Preemptions: v.Preemptions,
			VPC:         cpu.PC,
			Halted:      cpu.Halted,
			ExitStatus:  cpu.ExitStatus,
			TCache:      v.TCache().Occupancy(),
			Pages:       v.Pages(),
		}
		if p.Enabled() {
			live.Hot = p.LiveProfile()
		}
		return live
	}
}
