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

// runQuantum executes one scheduler quantum for sess: restore (or
// boot), run until the quantum's V-instruction deadline, a wall-clock
// safety timer, a kill, a drain, or a terminal event, then checkpoint
// and requeue — or settle a terminal state. A panic anywhere inside the
// quantum is quarantined into StateCrashed by the deferred barrier; it
// never unwinds into the worker loop, so sibling sessions and the
// server survive translator or executor bugs in one guest.
func (s *Server) runQuantum(sess *Session) {
	// segRaw is the encoded checkpoint this quantum resumed from (nil on
	// a boot quantum); the crash barrier and the failure paths bundle it
	// so the failing segment can be replayed from its exact start state.
	var segRaw []byte
	defer func() {
		if r := recover(); r != nil {
			s.emitBundle(sess, &flight.Bundle{
				Kind:       flight.KindCrash,
				Cause:      fmt.Sprintf("panic: %v", r),
				Config:     flight.CaptureConfig(s.quantumConfig()),
				Budget:     s.opts.SessionVBudget,
				Program:    s.progBytes(sess),
				Checkpoint: segRaw,
				Events:     []string{"panic quarantined by the crash barrier"},
			})
			s.crashSession(sess, r)
		}
	}()

	if sess.kill.Load() {
		s.finishSession(sess, StateKilled, "killed by client", nil)
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

	// Load the architected state to resume from: nil for a first
	// quantum (boot from the program image), an encoded checkpoint
	// otherwise — possibly read back from a shedding spill. A
	// checkpoint that no longer decodes is a typed failure of this
	// session only.
	st, raw, err := s.loadState(sess)
	if err != nil {
		s.failSession(sess, "checkpoint: "+err.Error())
		return
	}
	segRaw = raw

	sess.mu.Lock()
	sess.state = StateRunning
	startV := sess.vinsts
	wait := time.Since(sess.enqueued)
	sess.mu.Unlock()
	s.reg.Histogram("serve.wait_ms").Observe(float64(wait.Microseconds()) / 1000)

	cfg := s.quantumConfig()
	cfg.Store = s.store
	cfg.Metrics = sess.reg
	cfg.Poll = sess.tsess.Poll

	var vv *vm.VM
	target := int64(startV) + s.opts.QuantumVInsts
	cfg.Stop = func() bool {
		return s.draining.Load() || sess.kill.Load() || sess.desched.Load() ||
			int64(vv.Stats.TotalVInsts()) >= target
	}

	vv = vm.New(mem.New(), cfg)
	if st == nil {
		if err := vv.LoadProgram(sess.prog); err != nil {
			s.failSession(sess, "load: "+err.Error())
			return
		}
	} else {
		vv.Restore(st)
	}

	probe := telemetry.ProbeVM(vv, nil)
	sess.tsess.SetProbe(probe)
	sess.tsess.Unpark()

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
	s.reg.Counter("serve.quanta").Inc()
	s.reg.Histogram("serve.quantum_ms").Observe(float64(elapsed.Microseconds()) / 1000)

	// Deschedule: push the boundary snapshot to the plane so scrapes
	// see the parked state instantly, then settle the outcome.
	sess.tsess.Publish(probe())
	sess.tsess.Park()

	ck := vv.Checkpoint()
	enc := checkpoint.Encode(ck)
	sess.mu.Lock()
	sess.quanta++
	sess.vinsts = vv.Stats.TotalVInsts()
	sess.pages = vv.Pages()
	sess.lastRun = time.Now()
	quanta := sess.quanta
	sess.mu.Unlock()

	// bundleFor shapes this quantum's failure into a flight-recorder
	// bundle: the segment-start state, the config fingerprint, and the
	// architected position and counters at the failure.
	bundleFor := func(kind string, cause string) *flight.Bundle {
		b := &flight.Bundle{
			Kind:       kind,
			VPC:        vv.CPU().PC,
			Cause:      cause,
			Config:     flight.CaptureConfig(cfg),
			Budget:     s.opts.SessionVBudget,
			Checkpoint: segRaw,
			Counters:   ck.Counters,
			Events: []string{
				fmt.Sprintf("session %s tenant %q name %q", sess.ID, sess.Tenant, sess.Name),
				fmt.Sprintf("quantum %d, %d v-insts retired", quanta, vv.Stats.TotalVInsts()),
				"failure: " + cause,
			},
		}
		if segRaw == nil {
			b.Program = s.progBytes(sess)
		}
		return b
	}

	switch {
	case runErr == nil:
		sess.mu.Lock()
		sess.halted = ck.Halted
		sess.exitCode = ck.ExitStatus
		sess.console = string(ck.Console)
		sess.mu.Unlock()
		s.finishSession(sess, StateDone, "", enc)
	case errors.Is(runErr, vm.ErrBudget):
		s.emitBundle(sess, bundleFor(flight.KindBudget, runErr.Error()))
		s.failSession(sess, "v-instruction budget exhausted")
	case errors.Is(runErr, vm.ErrPreempted):
		if sess.kill.Load() {
			s.finishSession(sess, StateKilled, "killed by client", nil)
			return
		}
		if msg := s.tenantPageOverage(sess); msg != "" {
			// The tenant's resident-page sum crossed its quota during
			// this quantum: the session that pushed it over dies typed at
			// the boundary. No bundle — the kill is a cross-session
			// policy decision, not a replayable guest failure.
			s.reg.Counter("serve.resource_kills").Inc()
			s.failSession(sess, msg)
			break
		}
		// Ordinary quantum expiry (or drain): park the checkpoint and
		// requeue. Under drain the worker loop exits next iteration and
		// Drain spills the ready set from the session table.
		sess.mu.Lock()
		sess.state = StateReady
		sess.ckpt = enc
		sess.spilled = false
		sess.enqueued = time.Now()
		sess.mu.Unlock()
		s.mu.Lock()
		s.resident++
		s.mu.Unlock()
		s.reg.Counter("serve.preempts").Inc()
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
			s.reg.Counter("serve.resource_kills").Inc()
			s.emitBundle(sess, bundleFor(flight.KindResource, runErr.Error()))
			s.failSession(sess, "resource: "+runErr.Error())
		case errors.As(runErr, &trap):
			s.emitBundle(sess, bundleFor(flight.KindTrap, runErr.Error()))
			s.failSession(sess, "trap: "+trap.Error())
		default:
			s.emitBundle(sess, bundleFor(flight.KindError, runErr.Error()))
			s.failSession(sess, runErr.Error())
		}
	}
	s.updateGauges()
}

// quantumConfig is the VM configuration every quantum runs under and
// every recorded bundle fingerprints; hooks and sinks are attached by
// runQuantum itself.
func (s *Server) quantumConfig() vm.Config {
	cfg := vm.DefaultConfig()
	cfg.SelfHeal = true
	cfg.MaxPages = s.opts.SessionMaxPages
	return cfg
}

// progBytes serialises the session's program image for a bundle; nil
// for resumed sessions (their memory lives in the checkpoint) or if the
// image fails to encode.
func (s *Server) progBytes(sess *Session) []byte {
	if sess.prog == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := sess.prog.Save(&buf); err != nil {
		return nil
	}
	return buf.Bytes()
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

// loadState returns the checkpoint to resume sess from: nil for a
// first quantum, the decoded in-memory checkpoint, or the decoded
// shedding spill (read back and deleted). It also returns the raw
// encoded bytes for the flight recorder. A spill the filesystem tears
// or truncates never parses — the checkpoint CRC rejects it — so the
// error is always typed, never silent corruption.
func (s *Server) loadState(sess *Session) (*checkpoint.State, []byte, error) {
	sess.mu.Lock()
	enc, spilled := sess.ckpt, sess.spilled
	sess.ckpt = nil
	sess.spilled = false
	sess.mu.Unlock()
	if spilled {
		raw, err := s.fs.ReadFile(s.spillPath(sess.ID))
		if err != nil {
			s.noteIOFault("spill read", sess.ID, err)
			return nil, nil, err
		}
		s.fs.Remove(s.spillPath(sess.ID))
		s.reg.Counter("serve.spill_loads").Inc()
		enc = raw
	} else if enc != nil {
		s.mu.Lock()
		s.resident--
		s.mu.Unlock()
	}
	if enc == nil {
		return nil, nil, nil
	}
	st, err := checkpoint.Decode(enc)
	if err != nil {
		return nil, nil, err
	}
	return st, enc, nil
}

// shedCold enforces MaxResident: while more checkpoints sit in memory
// than allowed, the coldest ready session (least recently run — the one
// least likely to be re-scheduled soon) is written to the spill
// directory and its in-memory bytes are released. Overload therefore
// degrades by slowing cold sessions' resumes, never by refusing to
// checkpoint a hot one.
func (s *Server) shedCold() {
	if s.opts.MaxResident <= 0 || s.opts.SpillDir == "" {
		return
	}
	for {
		s.mu.Lock()
		if s.resident <= s.opts.MaxResident {
			s.mu.Unlock()
			return
		}
		var coldest *Session
		var coldestAt time.Time
		for _, sess := range s.live {
			sess.mu.Lock()
			candidate := sess.state == StateReady && !sess.spilled && !sess.spilling && sess.ckpt != nil
			at := sess.lastRun
			sess.mu.Unlock()
			if candidate && (coldest == nil || at.Before(coldestAt)) {
				coldest, coldestAt = sess, at
			}
		}
		s.mu.Unlock()
		if coldest == nil {
			return
		}
		if err := s.spillSession(coldest); err != nil {
			// Shedding failure is non-fatal: the checkpoint stays
			// resident (the atomic write never clobbered anything) and
			// the session runs on; only the pressure-relief is lost.
			s.noteIOFault("shed spill", coldest.ID, err)
			return
		}
	}
}

// spillSession writes a ready session's checkpoint to disk — via the
// write-temp/fsync/rename protocol, so a fault mid-write never leaves
// a torn file at the spill path — and drops the in-memory copy.
//
// The write runs unlocked, so a worker may dequeue the session
// meanwhile: it takes the checkpoint (loadState) and may even park a
// newer one. The spill therefore commits only if the session is still
// ready holding the very checkpoint written; otherwise the file is
// stale and is removed. The spilling flag keeps a second shedder off
// the session's spill path until this one settles.
func (s *Server) spillSession(sess *Session) error {
	if err := s.fs.MkdirAll(s.opts.SpillDir, 0o755); err != nil {
		return err
	}
	sess.mu.Lock()
	if sess.state != StateReady || sess.spilled || sess.spilling || sess.ckpt == nil {
		sess.mu.Unlock()
		return nil
	}
	enc := sess.ckpt
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
	commit := err == nil && sess.state == StateReady && len(sess.ckpt) > 0 && &sess.ckpt[0] == &enc[0]
	if commit {
		sess.ckpt = nil
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
	s.mu.Lock()
	s.resident--
	s.mu.Unlock()
	s.reg.Counter("serve.spills").Inc()
	return nil
}

// spillPath is the on-disk checkpoint location for a session ID.
func (s *Server) spillPath(id string) string {
	return filepath.Join(s.opts.SpillDir, id+".ckpt")
}

// spillForDrain persists one unfinished session for a successor server:
// its checkpoint bytes (captured now for sessions that never ran) plus
// the JSON meta sidecar Resume reads back.
func (s *Server) spillForDrain(sess *Session) error {
	sess.mu.Lock()
	enc, spilled := sess.ckpt, sess.spilled
	quanta, vinsts := sess.quanta, sess.vinsts
	sess.mu.Unlock()
	if !spilled && enc == nil {
		// Admitted but never scheduled: boot the VM just far enough to
		// have an architected state worth spilling — load the image and
		// checkpoint before the first instruction.
		vv := vm.New(mem.New(), vm.DefaultConfig())
		if err := vv.LoadProgram(sess.prog); err != nil {
			return err
		}
		enc = checkpoint.Encode(vv.Checkpoint())
	}
	if enc != nil {
		if err := iofs.AtomicWriteFile(s.fs, s.spillPath(sess.ID), enc, 0o644); err != nil {
			return err
		}
	} // else: already on disk from a shedding spill
	// The sidecar is written second: a crash or fault between the two
	// writes leaves a checkpoint no sidecar names, which the successor's
	// Resume counts as an orphan and sweeps — never a half-adopted
	// session.
	meta, err := json.Marshal(spillMeta{
		ID: sess.ID, Tenant: sess.Tenant, Name: sess.Name,
		Quanta: quanta, VInsts: vinsts,
	})
	if err != nil {
		return err
	}
	return iofs.AtomicWriteFile(s.fs, filepath.Join(s.opts.SpillDir, sess.ID+".json"), meta, 0o644)
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

// finishSession settles a terminal state, releasing the session's
// admission slot, closing its done channel, and finishing its plane
// registration. final, when non-nil, is the encoded final checkpoint
// served on /sessions/{id}/checkpoint and compared bit-for-bit by the
// differential harnesses.
func (s *Server) finishSession(sess *Session, st State, msg string, final []byte) {
	sess.mu.Lock()
	if sess.state.Terminal() {
		sess.mu.Unlock()
		return
	}
	sess.state = st
	sess.errMsg = msg
	sess.final = final
	hadResident := sess.ckpt != nil
	hadSpill := sess.spilled
	sess.ckpt = nil
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
	if hadResident {
		s.resident--
	}
	s.mu.Unlock()

	switch st {
	case StateDone:
		s.reg.Counter("serve.completed").Inc()
	case StateFailed:
		s.reg.Counter("serve.failed").Inc()
	case StateKilled:
		s.reg.Counter("serve.killed").Inc()
	case StateCrashed:
		s.reg.Counter("serve.crashed").Inc()
	}
	// The plane session gets a final marker; its cached snapshot (the
	// last published quantum boundary) remains the served state.
	sess.tsess.Finish()
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
	s.finishSession(sess, StateFailed, msg, nil)
}

// crashSession is the crash barrier's landing: the panic value becomes
// the quarantined session's failure cause.
func (s *Server) crashSession(sess *Session, r any) {
	s.log.Error("session crashed", "session", sess.ID, "panic", fmt.Sprint(r))
	s.finishSession(sess, StateCrashed, fmt.Sprintf("panic: %v", r), nil)
}

// noteIOFault counts and logs one failed persistence operation. Every
// such failure is a session-local, typed degradation — the scheduler
// and sibling sessions run on.
func (s *Server) noteIOFault(op, id string, err error) {
	s.reg.Counter("serve.io_faults").Inc()
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
	s.reg.Counter("serve.bundles").Inc()
	s.log.Info("flight bundle recorded", "session", sess.ID, "kind", b.Kind, "path", path)
}

// bundleDrainFailure records an io_fault bundle for a session whose
// drain spill failed: the resident checkpoint bytes are the evidence —
// the exact architected state the fault prevented from reaching disk.
func (s *Server) bundleDrainFailure(sess *Session, cause error) {
	if s.opts.BundleDir == "" {
		return
	}
	sess.mu.Lock()
	enc := sess.ckpt
	sess.mu.Unlock()
	if enc == nil {
		return
	}
	st, err := checkpoint.Decode(enc)
	if err != nil {
		return
	}
	s.emitBundle(sess, &flight.Bundle{
		Kind:       flight.KindIOFault,
		VPC:        st.PC,
		Cause:      cause.Error(),
		Config:     flight.CaptureConfig(s.quantumConfig()),
		Budget:     s.opts.SessionVBudget,
		Checkpoint: enc,
		Counters:   st.Counters,
		Events: []string{
			fmt.Sprintf("session %s tenant %q name %q", sess.ID, sess.Tenant, sess.Name),
			"drain spill failed: " + cause.Error(),
		},
	})
}
