package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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
}

// Session is one registered VM run. It holds a probe only while its VM
// runs: Attach installs one, Park and Finish capture a last snapshot
// through it and drop it, so a descheduled or finished session keeps
// its snapshot but not its VM.
//
// The introspection protocol is pull-based and runs entirely on the VM
// goroutine: an HTTP handler calls State, which arms the want flag and
// waits; the VM's Config.Poll hook (Session.Poll) observes the flag at
// the next V-instruction boundary, runs the probe there, caches the
// result, and wakes every waiter. The attached-but-idle cost is
// therefore one atomic load per poll site, and the VM's state is only
// ever read by the VM goroutine.
type Session struct {
	plane    *Plane
	id       int
	name     string
	workload string
	machine  string
	started  time.Time
	reg      *metrics.Registry

	// cancelTap detaches the plane's registry subscription; set by
	// Plane.Register, called on eviction or Plane.Close. Guarded by the
	// plane's mu.
	cancelTap func()

	// want is armed by State and cleared by a capture; it is the only
	// word the VM goroutine reads when nobody is looking.
	want atomic.Bool

	mu    sync.Mutex
	probe func() Live
	// parked marks a session without a running VM (before Attach and
	// after Park): no goroutine will reach a poll boundary, so State
	// serves the cached snapshot at once instead of waiting for one.
	parked  bool
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

// service captures a snapshot for the waiters that armed want. Split
// from Poll so the fast path stays inlineable.
func (s *Session) service() {
	s.mu.Lock()
	probe := s.probe
	s.mu.Unlock()
	if probe == nil {
		// Armed while no probe is held (between segments of a
		// kill-resume run): leave want set; waiters fall back to the
		// cached state.
		return
	}
	s.capture(probe, nil)
}

// capture runs probe (when non-nil) on the calling VM goroutine and
// caches its snapshot, applies update under the session lock, and wakes
// every State waiter.
func (s *Session) capture(probe func() Live, update func()) {
	var live Live
	if probe != nil {
		live = probe()
	}
	s.mu.Lock()
	if probe != nil {
		s.last, s.lastAt, s.hasLast = live, time.Now(), true
	}
	if update != nil {
		update()
	}
	waiters := s.waiters
	s.waiters = nil
	s.want.Store(false)
	s.mu.Unlock()
	for _, w := range waiters {
		close(w)
	}
}

// Attach installs probe, seeds the cached state with an immediate
// capture and unparks the session. Call it from the goroutine that will
// run the VM, after the program is loaded and before Run; pass
// ProbeVM(v, p) for a real VM. The probe is only ever invoked on that
// goroutine, so it may read VM state without synchronization; it must
// return copies, not aliases.
func (s *Session) Attach(probe func() Live) {
	s.capture(probe, func() { s.probe, s.parked = probe, false })
}

// Park captures a last snapshot through the held probe, drops the probe
// and parks the session: until the next Attach, State serves that
// snapshot at once. Call it on the VM goroutine when the VM stops
// running (a scheduler descheduling it between quanta).
func (s *Session) Park() {
	s.capture(s.takeProbe(), func() { s.parked = true })
}

// Finish captures a final snapshot through the held probe, if any, drops
// the probe and marks the session done. Waiters are woken; later State
// calls return the final state immediately. The first Finish retires the
// session into the plane's history of the last keepFinished finished
// sessions, which may evict the oldest of them. Call it on the VM
// goroutine; it is safe to call more than once.
func (s *Session) Finish() {
	first := false
	s.capture(s.takeProbe(), func() { first, s.done = !s.done, true })
	if first {
		s.plane.retire(s)
	}
}

// takeProbe removes and returns the held probe, so the session no
// longer references its VM.
func (s *Session) takeProbe() func() Live {
	s.mu.Lock()
	defer s.mu.Unlock()
	probe := s.probe
	s.probe = nil
	return probe
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
	if s.done || s.parked {
		// No VM goroutine will service a probe, so waiting would only
		// stall the scrape: the cached snapshot is the state the session
		// finished or was parked with.
		live, at, fresh, ok = s.last, s.lastAt, s.done, s.hasLast
		s.mu.Unlock()
		return live, at, fresh, ok
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
