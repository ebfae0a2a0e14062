package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/flight"
	"github.com/ildp/accdbt/internal/iofs"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/telemetry"
	"github.com/ildp/accdbt/internal/vm"
)

// worker pulls runnable sessions off the queue and runs them for one
// quantum each until the server drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case sess := <-s.runq:
			s.runQuantum(sess)
		}
	}
}

// runQuantum executes one scheduler quantum for sess: cold-start its VM
// if the session holds none, advance the quantum's V-instruction
// deadline, and run until that deadline, a wall-clock safety timer, a
// kill, a drain, or a terminal event; then park the VM and requeue — or
// settle a terminal state. A panic anywhere inside the quantum is
// quarantined into StateCrashed by the deferred barrier; it never
// unwinds into the worker loop, so sibling sessions and the server
// survive translator or executor bugs in one guest.
func (s *Server) runQuantum(sess *Session) {
	defer func() {
		if r := recover(); r != nil {
			s.emitBundle(sess, s.failureBundle(sess, flight.KindCrash, fmt.Sprintf("panic: %v", r)))
			s.crashSession(sess, r)
		}
	}()

	if sess.kill.Load() {
		s.finishSession(sess, StateKilled, "killed by client")
		return
	}
	if s.opts.SessionWall > 0 {
		sess.mu.Lock()
		expired := time.Since(sess.admitted) > s.opts.SessionWall
		sess.mu.Unlock()
		if expired {
			s.failSession(sess, "session wall-clock timeout")
			return
		}
	}

	if s.hookQuantum != nil {
		s.hookQuantum(sess)
	}

	// Claiming the session (StateRunning) under its lock is what makes a
	// shed spill still in flight abandon its commit.
	sess.mu.Lock()
	sess.state = StateRunning
	vv, origin, spilled := sess.vm, sess.origin, sess.spilled
	sess.spilled = false
	wait := time.Since(sess.enqueued)
	sess.mu.Unlock()
	s.m.waitMS.Observe(float64(wait.Microseconds()) / 1000)

	if vv == nil {
		var err error
		if vv, err = s.coldStart(sess, origin, spilled); err != nil {
			s.failSession(sess, err.Error())
			return
		}
	}
	sess.deadline = vv.Stats.TotalVInsts() + uint64(s.opts.QuantumVInsts)
	sess.tsess.Attach(telemetry.ProbeVM(vv, nil))

	var wallTimer *time.Timer
	if s.opts.QuantumWall > 0 {
		wallTimer = time.AfterFunc(s.opts.QuantumWall, func() { sess.desched.Store(true) })
		defer wallTimer.Stop()
	}

	quantumStart := time.Now()
	runErr := vv.Run(s.opts.SessionVBudget)
	elapsed := time.Since(quantumStart)
	if wallTimer != nil {
		wallTimer.Stop()
	}
	// Clear the safety flag before the session can be requeued; a timer
	// that fired between Stop and here only costs one short next quantum.
	sess.desched.Store(false)
	s.m.quanta.Inc()
	s.m.quantumMS.Observe(float64(elapsed.Microseconds()) / 1000)

	// Deschedule: the plane keeps the boundary snapshot, so scrapes see
	// the parked state instantly, and drops its probe, so the VM is
	// released with the session's reference. Then settle the outcome.
	sess.tsess.Park()

	sess.mu.Lock()
	sess.quanta++
	sess.vinsts = vv.Stats.TotalVInsts()
	sess.pages = vv.Pages()
	sess.lastRun = time.Now()
	sess.mu.Unlock()

	switch {
	case runErr == nil:
		s.finishSession(sess, StateDone, "")
	case errors.Is(runErr, vm.ErrBudget):
		s.emitBundle(sess, s.failureBundle(sess, flight.KindBudget, runErr.Error()))
		s.failSession(sess, "v-instruction budget exhausted")
	case errors.Is(runErr, vm.ErrPreempted):
		if sess.kill.Load() {
			s.finishSession(sess, StateKilled, "killed by client")
			return
		}
		if msg := s.tenantPageOverage(sess); msg != "" {
			// The tenant's resident-page sum crossed its quota during
			// this quantum: the session that pushed it over dies typed at
			// the boundary. No bundle — the kill is a cross-session
			// policy decision, not a replayable guest failure.
			s.m.resourceKills.Inc()
			s.failSession(sess, msg)
			break
		}
		// Ordinary quantum expiry (or drain): park the VM and requeue.
		// Under drain the worker loop exits next iteration and Drain
		// spills the ready set from the session table.
		sess.mu.Lock()
		sess.state = StateReady
		sess.enqueued = time.Now()
		sess.mu.Unlock()
		s.m.preempts.Inc()
		s.enqueue(sess)
		s.shedCold()
	default:
		// A guest trap (or an unrecovered VM failure with SelfHeal
		// exhausted) is this session's problem alone. Resource-governor
		// traps are classified apart from ordinary guest traps so the
		// kill shows up in resource accounting.
		var rf *mem.ResourceFault
		var trap *emu.Trap
		switch {
		case errors.As(runErr, &rf):
			s.m.resourceKills.Inc()
			s.emitBundle(sess, s.failureBundle(sess, flight.KindResource, runErr.Error()))
			s.failSession(sess, "resource: "+runErr.Error())
		case errors.As(runErr, &trap):
			s.emitBundle(sess, s.failureBundle(sess, flight.KindTrap, runErr.Error()))
			s.failSession(sess, "trap: "+trap.Error())
		default:
			s.emitBundle(sess, s.failureBundle(sess, flight.KindError, runErr.Error()))
			s.failSession(sess, runErr.Error())
		}
	}
	s.updateGauges()
}

// coldStart builds the VM a session keeps for the rest of its life in
// this server: from its shedding spill (read back and deleted), from
// origin (a checkpoint adopted by Resume), or from the program image on
// its first quantum. The Stop and Poll hooks are attached here, once
// per VM; each quantum attaches the telemetry probe for its own run. A
// spill the filesystem tears or truncates never parses — the checkpoint
// CRC rejects it — so the error is always typed, never silent
// corruption.
func (s *Server) coldStart(sess *Session, origin []byte, spilled bool) (*vm.VM, error) {
	if spilled {
		raw, err := s.fs.ReadFile(s.spillPath(sess.ID))
		if err != nil {
			s.noteIOFault("spill read", sess.ID, err)
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		s.fs.Remove(s.spillPath(sess.ID))
		s.m.spillLoads.Inc()
		origin = raw
	}

	cfg := s.quantumConfig()
	cfg.Store = s.store
	cfg.Metrics = sess.reg
	cfg.Poll = sess.tsess.Poll
	var vv *vm.VM
	cfg.Stop = func() bool {
		return s.draining.Load() || sess.kill.Load() || sess.desched.Load() ||
			vv.Stats.TotalVInsts() >= sess.deadline
	}
	vv = vm.New(mem.New(), cfg)
	if origin == nil {
		if err := vv.LoadProgram(sess.prog); err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
	} else {
		st, err := checkpoint.Decode(origin)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		vv.Restore(st)
	}

	sess.mu.Lock()
	sess.vm, sess.origin = vv, origin
	sess.mu.Unlock()
	return vv, nil
}

// quantumConfig is the VM configuration every session runs under and
// every recorded bundle fingerprints; hooks and sinks are attached by
// coldStart itself.
func (s *Server) quantumConfig() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.SelfHeal = true
	cfg.MaxPages = s.opts.SessionMaxPages
	return cfg
}

// tenantPageOverage reports a non-empty kill message when sess's tenant
// has grown past its resident-page quota.
func (s *Server) tenantPageOverage(sess *Session) string {
	if s.opts.TenantPageQuota <= 0 {
		return ""
	}
	s.mu.Lock()
	total := s.tenantPagesLocked(sess.Tenant)
	s.mu.Unlock()
	if total <= s.opts.TenantPageQuota {
		return ""
	}
	return fmt.Sprintf("resource: tenant %q resident pages %d exceed quota %d",
		sess.Tenant, total, s.opts.TenantPageQuota)
}

// shedCold enforces MaxResident: while more ready sessions hold a VM
// in memory than allowed, the coldest (least recently run — the one
// least likely to be re-scheduled soon) is checkpointed to the spill
// directory and its VM released. Overload therefore degrades by slowing
// cold sessions' resumes, never by refusing to park a hot one.
func (s *Server) shedCold() {
	if s.opts.MaxResident <= 0 || s.opts.SpillDir == "" {
		return
	}
	for {
		s.mu.Lock()
		resident := 0
		var coldest *Session
		var coldestAt time.Time
		for _, sess := range s.live {
			sess.mu.Lock()
			held := sess.state == StateReady && sess.vm != nil
			candidate := held && !sess.spilling
			at := sess.lastRun
			sess.mu.Unlock()
			if held {
				resident++
			}
			if candidate && (coldest == nil || at.Before(coldestAt)) {
				coldest, coldestAt = sess, at
			}
		}
		s.mu.Unlock()
		if resident <= s.opts.MaxResident || coldest == nil {
			return
		}
		if err := s.spillSession(coldest); err != nil {
			// Shedding failure is non-fatal: the VM stays resident (the
			// atomic write never clobbered anything) and the session runs
			// on; only the pressure-relief is lost.
			s.noteIOFault("shed spill", coldest.ID, err)
			return
		}
	}
}

// spillSession checkpoints a ready session's VM to disk — via the
// write-temp/fsync/rename protocol, so a fault mid-write never leaves a
// torn file at the spill path — and releases the VM.
//
// The encode runs under the session lock while the session is ready,
// so no worker is running the VM; the write runs unlocked, so a worker
// may dequeue the session meanwhile and run it on. The spill therefore
// commits only if the session is still ready at the same quantum count;
// otherwise the file is stale and is removed. The spilling flag keeps a
// second shedder off the session's spill path until this one settles.
func (s *Server) spillSession(sess *Session) error {
	if err := s.fs.MkdirAll(s.opts.SpillDir, 0o755); err != nil {
		return err
	}
	sess.mu.Lock()
	if sess.state != StateReady || sess.vm == nil || sess.spilling {
		sess.mu.Unlock()
		return nil
	}
	enc := checkpoint.Encode(sess.vm.Checkpoint())
	quanta := sess.quanta
	sess.spilling = true
	sess.mu.Unlock()
	// Cleared only after the stale-file removal below, so no other
	// shedder can have written the spill path in between.
	defer func() {
		sess.mu.Lock()
		sess.spilling = false
		sess.mu.Unlock()
	}()
	err := iofs.AtomicWriteFile(s.fs, s.spillPath(sess.ID), enc, 0o644)
	sess.mu.Lock()
	commit := err == nil && sess.state == StateReady && sess.quanta == quanta
	if commit {
		sess.vm = nil
		sess.spilled = true
	}
	sess.mu.Unlock()
	if err != nil {
		return err
	}
	if !commit {
		s.fs.Remove(s.spillPath(sess.ID))
		return nil
	}
	s.m.spills.Inc()
	return nil
}

// spillPath is the on-disk checkpoint location for a session ID.
func (s *Server) spillPath(id string) string {
	return filepath.Join(s.opts.SpillDir, id+".ckpt")
}

// spillForDrain persists one unfinished session for a successor server:
// its checkpoint bytes (from the resident VM, or its adopted origin, or
// captured now for sessions that never ran) plus the JSON meta sidecar
// Resume reads back. It returns the checkpoint bytes it meant to write,
// nil when the state was already on disk from a shedding spill.
func (s *Server) spillForDrain(sess *Session) ([]byte, error) {
	sess.mu.Lock()
	vv, origin, spilled := sess.vm, sess.origin, sess.spilled
	quanta, vinsts := sess.quanta, sess.vinsts
	sess.mu.Unlock()
	var enc []byte
	switch {
	case vv != nil:
		enc = checkpoint.Encode(vv.Checkpoint())
	case spilled: // already on disk from a shedding spill
	case origin != nil:
		enc = origin
	default:
		// Admitted but never scheduled: boot the VM just far enough to
		// have an architected state worth spilling — load the image and
		// checkpoint before the first instruction.
		boot := vm.New(mem.New(), vm.DefaultConfig())
		if err := boot.LoadProgram(sess.prog); err != nil {
			return nil, err
		}
		enc = checkpoint.Encode(boot.Checkpoint())
	}
	if enc != nil {
		if err := iofs.AtomicWriteFile(s.fs, s.spillPath(sess.ID), enc, 0o644); err != nil {
			return enc, err
		}
	}
	// The sidecar is written second: a crash or fault between the two
	// writes leaves a checkpoint no sidecar names, which the successor's
	// Resume counts as an orphan and sweeps — never a half-adopted
	// session.
	meta, err := json.Marshal(spillMeta{
		ID: sess.ID, Tenant: sess.Tenant, Name: sess.Name,
		Quanta: quanta, VInsts: vinsts,
	})
	if err != nil {
		return enc, err
	}
	return enc, iofs.AtomicWriteFile(s.fs, filepath.Join(s.opts.SpillDir, sess.ID+".json"), meta, 0o644)
}

// readSpillMeta parses one drain sidecar.
func readSpillMeta(fsys iofs.FS, path string) (*spillMeta, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var meta spillMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, err
	}
	if meta.ID == "" {
		return nil, fmt.Errorf("spill meta %s: missing id", path)
	}
	return &meta, nil
}

// finishSession settles a terminal state, releasing the session's VM,
// program, registry and admission slot, closing its done channel, and
// finishing its plane registration. Only the result outlives it: a done
// session keeps its encoded final checkpoint, served on
// /sessions/{id}/checkpoint and compared bit-for-bit by the harnesses.
func (s *Server) finishSession(sess *Session, st State, msg string) {
	sess.mu.Lock()
	if sess.state.Terminal() {
		sess.mu.Unlock()
		return
	}
	sess.state = st
	sess.errMsg = msg
	if st == StateDone {
		ck := sess.vm.Checkpoint()
		sess.final = checkpoint.Encode(ck)
		sess.halted, sess.exitCode, sess.console = ck.Halted, ck.ExitStatus, string(ck.Console)
	}
	hadSpill := sess.spilled
	tsess := sess.tsess
	sess.vm, sess.origin, sess.prog, sess.reg, sess.tsess = nil, nil, nil, nil, nil
	sess.spilled = false
	done := sess.done
	sess.mu.Unlock()
	if hadSpill {
		s.fs.Remove(s.spillPath(sess.ID))
	}

	s.mu.Lock()
	delete(s.live, sess.ID)
	s.byTenant[sess.Tenant]--
	if s.byTenant[sess.Tenant] <= 0 {
		delete(s.byTenant, sess.Tenant)
	}
	s.mu.Unlock()

	switch st {
	case StateDone:
		s.m.completed.Inc()
	case StateFailed:
		s.m.failed.Inc()
	case StateKilled:
		s.m.killed.Inc()
	case StateCrashed:
		s.m.crashed.Inc()
	}
	// The plane session gets a final marker; its cached snapshot (the
	// last quantum boundary) remains the served state.
	tsess.Finish()
	close(done)
	s.updateGauges()
	if msg != "" {
		s.log.Info("session finished", "session", sess.ID, "state", string(st), "cause", msg)
	} else {
		s.log.Info("session finished", "session", sess.ID, "state", string(st))
	}
}

// failSession settles StateFailed with a cause.
func (s *Server) failSession(sess *Session, msg string) {
	s.finishSession(sess, StateFailed, msg)
}

// crashSession is the crash barrier's landing: the panic value becomes
// the quarantined session's failure cause.
func (s *Server) crashSession(sess *Session, r any) {
	s.log.Error("session crashed", "session", sess.ID, "panic", fmt.Sprint(r))
	s.finishSession(sess, StateCrashed, fmt.Sprintf("panic: %v", r))
}

// noteIOFault counts and logs one failed persistence operation. Every
// such failure is a session-local, typed degradation — the scheduler
// and sibling sessions run on.
func (s *Server) noteIOFault(op, id string, err error) {
	s.m.ioFaults.Inc()
	s.log.Warn("persistence fault", "op", op, "session", id, "err", err)
}

// emitBundle writes a flight-recorder bundle for a failing session to
// BundleDir. Recording is best-effort evidence capture: a bundle that
// cannot be written (including under injected I/O faults — the write
// goes through the same filesystem) is logged and dropped, never
// allowed to turn one failure into two.
func (s *Server) emitBundle(sess *Session, b *flight.Bundle) {
	if s.opts.BundleDir == "" {
		return
	}
	if len(b.Program) == 0 && len(b.Checkpoint) == 0 {
		return // no state source; nothing a replay could execute
	}
	if err := s.fs.MkdirAll(s.opts.BundleDir, 0o755); err != nil {
		s.noteIOFault("bundle dir", sess.ID, err)
		return
	}
	path := filepath.Join(s.opts.BundleDir, sess.ID+".bundle")
	if err := iofs.AtomicWriteFile(s.fs, path, flight.Encode(b), 0o644); err != nil {
		s.noteIOFault("bundle write", sess.ID, err)
		return
	}
	s.m.bundles.Inc()
	s.log.Info("flight bundle recorded", "session", sess.ID, "kind", b.Kind, "path", path)
}

// failureBundle shapes a failure of sess into a flight-recorder bundle:
// the state the session's VM started from (its origin checkpoint, or
// the program image), the config fingerprint, and — once the session
// holds a VM — the architected V-PC and counters at the failure. The
// VM's Stats are preemption-invariant, so an uninterrupted replay from
// that start state reproduces them.
func (s *Server) failureBundle(sess *Session, kind, cause string) *flight.Bundle {
	sess.mu.Lock()
	vv, origin, quanta, vinsts := sess.vm, sess.origin, sess.quanta, sess.vinsts
	sess.mu.Unlock()
	b := &flight.Bundle{
		Kind:       kind,
		Cause:      cause,
		Config:     flight.CaptureConfig(s.quantumConfig()),
		Budget:     s.opts.SessionVBudget,
		Checkpoint: origin,
		Events: []string{
			fmt.Sprintf("session %s tenant %q name %q", sess.ID, sess.Tenant, sess.Name),
			fmt.Sprintf("quantum %d, %d v-insts retired", quanta, vinsts),
			"failure: " + cause,
		},
	}
	var prog bytes.Buffer
	if origin == nil && sess.prog != nil && sess.prog.Save(&prog) == nil {
		b.Program = prog.Bytes()
	}
	if vv != nil {
		ck := vv.Checkpoint()
		b.VPC = ck.PC
		b.Counters = ck.Counters
	}
	return b
}

// bundleDrainFailure records an io_fault bundle for a session whose
// drain spill failed: the checkpoint bytes the fault kept off the disk
// are the evidence — the exact architected state it prevented from
// being persisted.
func (s *Server) bundleDrainFailure(sess *Session, enc []byte, cause error) {
	st, err := checkpoint.Decode(enc)
	if err != nil {
		return
	}
	b := s.failureBundle(sess, flight.KindIOFault, "drain spill: "+cause.Error())
	b.Checkpoint, b.Program, b.VPC, b.Counters = enc, nil, st.PC, st.Counters
	s.emitBundle(sess, b)
}
