package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/telemetry"
)

// State is a session's position in the scheduler lifecycle.
type State string

// Session lifecycle states. A session moves queued → running → ready
// (checkpointed between quanta, possibly spilled to disk) and around
// again until it reaches one of the terminal states: done (guest
// exited), failed (trap, budget, timeout, or a bad checkpoint), killed
// (client DELETE), or crashed (runtime panic quarantined by the crash
// barrier).
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateReady   State = "ready"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateKilled  State = "killed"
	StateCrashed State = "crashed"
)

// Terminal reports whether st is an end state.
func (st State) Terminal() bool {
	switch st {
	case StateDone, StateFailed, StateKilled, StateCrashed:
		return true
	}
	return false
}

// Session is one admitted guest program. The scheduler owns all
// mutable fields under mu; the kill and desched flags are the only
// words written from other goroutines while a quantum runs (they are
// read by the VM's Stop hook at V-instruction boundaries).
type Session struct {
	// ID is the server-assigned session identifier.
	ID string
	// Tenant is the admission-quota bucket the session counts against.
	Tenant string
	// Name labels the session (workload name or "image").
	Name string

	// prog is the program image; nil for sessions resumed from a spill
	// directory, whose memory image lives entirely in the checkpoint.
	prog *alphaprog.Program

	// kill is set by DELETE /sessions/{id}; the Stop hook observes it
	// mid-quantum and the worker converts it to StateKilled.
	kill atomic.Bool
	// desched is armed by the quantum wall-clock safety timer.
	desched atomic.Bool

	// reg is the session's private metrics registry, tapped by the
	// telemetry plane; tsess is its plane registration.
	reg   *metrics.Registry
	tsess *telemetry.Session

	mu       sync.Mutex
	state    State
	errMsg   string
	ckpt     []byte // encoded checkpoint between quanta (nil when spilled or unstarted)
	spilled  bool   // checkpoint lives at spillPath instead of ckpt
	spilling bool   // a shedding spill of ckpt is being written
	final    []byte // final checkpoint once terminal
	quanta   int
	vinsts   uint64 // cumulative V-instructions retired
	pages    int    // guest-resident pages at the last quantum boundary
	halted   bool
	exitCode uint64
	console  string
	admitted time.Time
	enqueued time.Time // last enqueue, for the wait histogram
	lastRun  time.Time // last quantum end, for cold-first shedding
	done     chan struct{}
}

// View is the JSON shape of a session returned by the HTTP API.
type View struct {
	ID         string `json:"id"`
	Tenant     string `json:"tenant,omitempty"`
	Name       string `json:"name"`
	State      State  `json:"state"`
	Error      string `json:"error,omitempty"`
	Quanta     int    `json:"quanta"`
	VInsts     uint64 `json:"v_insts"`
	Pages      int    `json:"pages"`
	Halted     bool   `json:"halted"`
	ExitStatus uint64 `json:"exit_status"`
	Console    string `json:"console,omitempty"`
	Spilled    bool   `json:"spilled,omitempty"`
}

// view snapshots the session for the HTTP API.
func (s *Session) view() View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return View{
		ID:         s.ID,
		Tenant:     s.Tenant,
		Name:       s.Name,
		State:      s.state,
		Error:      s.errMsg,
		Quanta:     s.quanta,
		VInsts:     s.vinsts,
		Pages:      s.pages,
		Halted:     s.halted,
		ExitStatus: s.exitCode,
		Console:    s.console,
		Spilled:    s.spilled,
	}
}

// StateNow returns the session's current lifecycle state.
func (s *Session) StateNow() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Err returns the failure message of a failed or crashed session.
func (s *Session) Err() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errMsg
}

// Done returns a channel closed when the session reaches a terminal
// state; long-poll handlers and tests wait on it.
func (s *Session) Done() <-chan struct{} { return s.done }

// FinalCheckpoint returns the encoded final architected state, or nil
// while the session is still live. The slice is owned by the session;
// callers must not modify it.
func (s *Session) FinalCheckpoint() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.final
}

// Kill requests termination: mid-quantum the Stop hook preempts at the
// next V-instruction boundary, otherwise the next dequeue discards the
// session. The transition to StateKilled is reported by the scheduler,
// not here.
func (s *Session) Kill() { s.kill.Store(true) }
