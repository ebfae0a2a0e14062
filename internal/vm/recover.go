package vm

import (
	"fmt"

	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/tcache"
)

// This file is the VM's self-healing layer: the per-entry integrity
// re-check and fault-injection decision point (admit), the recovery
// bookkeeping shared by every recovery path (noteRecovery), the
// retranslate-with-backoff / quarantine policy for failed translations
// (translateFailed), and the injected cache-capacity shrink. The design
// invariant throughout is that a recovery never loses architected state:
// translated code is entered only after it passes the entry check, so
// every recovery action happens at a V-ISA instruction boundary where
// falling back to the interpreter is always correct.

// shrinkFloor is the smallest capacity an injected shrink can impose.
const shrinkFloor = 4 << 10

// fragUsable decides an entry into f from the VM's top-level loop (see
// admit), then lets the Poll hook observe the boundary.
func (v *VM) fragUsable(f *tcache.Fragment) bool {
	ok := v.admit(f)
	v.poll()
	return ok
}

// poll calls the Poll observation hook, if one is attached. Besides the
// Run loop top it runs at every fragment entry, once the entry is
// decided: a chained hot loop can stay inside translated code
// indefinitely, and must not starve the telemetry plane for the whole
// loop's lifetime.
func (v *VM) poll() {
	if poll := v.cfg.Poll; poll != nil {
		poll()
	}
}

// admit runs the preemption checks, the entry-time fault-injection draw
// and the paranoid integrity re-check for a fragment about to be entered
// (from the VM top level or from a chained transfer inside translated
// code). It returns false when the fragment must not run this time; the
// caller falls back to interpretation at the fragment's V-start, which
// guarantees forward progress — the next entry attempt redraws.
func (v *VM) admit(f *tcache.Fragment) bool {
	// Preemption: a chained hot loop can stay inside translated code
	// indefinitely, so the budget and the stop hook must also be visible
	// at chained and dispatched entries, not just at the Run loop top.
	// Refusing the entry exits to the VM at this fragment's V-start — a
	// precise V-instruction boundary — and stopCause makes Run convert
	// the refusal into a *PreemptError there.
	if v.budget > 0 && int64(v.Stats.TotalVInsts()) >= v.budget {
		v.stopCause = ErrBudget
		return false
	}
	if stop := v.cfg.Stop; stop != nil && stop() {
		v.stopCause = ErrPreempted
		return false
	}
	// Livelock watchdog: translated code retiring no V-instructions
	// (e.g. a corrupted fragment chained into a cycle of pure overhead)
	// never returns to the interpreter on its own. Every fragment entry
	// checks whether retirement advanced since the last observation; if
	// the VM has burned a full window of work without retiring anything,
	// the fragment being entered is quarantined and invalidated through
	// the recovery path, and the refused entry falls back to the
	// interpreter, which always makes progress.
	if w := v.cfg.WatchdogWindow; w > 0 {
		retired := v.Stats.TotalVInsts()
		work := v.Stats.TransIInsts + v.Stats.InterpInsts
		if retired != v.wdRetired {
			v.wdRetired, v.wdWork = retired, work
		} else if int64(work-v.wdWork) >= w {
			v.wdWork = work
			v.Stats.WatchdogTrips++
			v.quarantinePC(f.VStart, fmt.Errorf("vm: watchdog: no V-instruction retired in %d work units", w))
			v.tc.Invalidate(f.ID)
			v.noteRecovery("watchdog livelock", f.VStart)
			return false
		}
	}
	if v.inj != nil {
		switch k := v.inj.EntryFault(); k {
		case faultinject.KindBitFlip:
			// Corrupt the fragment being entered, so detection (below) is
			// exercised on this very entry and the applied-fault count
			// stays in lockstep with the reverify-failure count.
			if v.inj.CorruptFragment(f) {
				v.inj.Applied(k)
				// Without Paranoid the corrupted code runs: rebuild its
				// record templates from the flipped instructions.
				f.Recs = nil
			}
		case faultinject.KindEvict:
			v.inj.Applied(k)
			v.Stats.ForcedEvicts++
			v.tc.Flush()
			v.noteRecovery("forced evict", f.VStart)
			return false
		case faultinject.KindSpuriousTrap:
			v.inj.Applied(k)
			v.Stats.SpuriousTraps++
			v.noteRecovery("spurious trap", f.VStart)
			return false
		case faultinject.KindShrinkCache:
			v.inj.Applied(k)
			v.Stats.CacheShrinks++
			v.shrinkCache()
			// Shrinking is pressure, not damage: the entry proceeds and the
			// next install flushes under the reduced capacity.
		}
	}
	if v.cfg.Paranoid && !f.IntegrityOK() {
		v.Stats.ReverifyFails++
		v.tc.Invalidate(f.ID)
		v.noteRecovery("integrity recheck failed", f.VStart)
		return false
	}
	return true
}

// noteRecovery charges one recovery episode: the modelled software
// overhead (RecoveryCostPerEvent Alpha instructions, on top of the
// per-instruction interpretation cost of the fallback itself), the
// metrics event, and the profiler's recovery pseudo-frame. It also arms
// fallback accounting so interpreted instructions are attributed to
// recovery until translated execution resumes.
func (v *VM) noteRecovery(detail string, vpc uint64) {
	v.Stats.RecoveryCost += RecoveryCostPerEvent
	v.inFallback = true
	v.cfg.Metrics.Event(metrics.Event{Kind: metrics.EventRecover, Frag: -1,
		VStart: vpc, Detail: detail})
	v.cfg.Metrics.Counter("vm.recovery.episodes").Inc()
	v.cfg.Prof.EnterRecovery(v.Stats.TransIInsts, v.Stats.TransVInsts)
}

// translateFailed handles a failed (or verifier-rejected) translation of
// the superblock starting at pc. With self-healing enabled the failure
// becomes a recovery: the PC's failure count feeds the exponential
// retranslation backoff in noteCandidate, and once it reaches the retry
// budget the PC is quarantined to interpret-only forever. Without
// self-healing the error is returned fatal, preserving the strict
// abort-on-bad-translation semantics the verifier sweep relies on.
func (v *VM) translateFailed(pc uint64, cause error) error {
	if !v.cfg.SelfHeal {
		return cause
	}
	v.Stats.TransFailures++
	v.failures[pc]++
	v.noteRecovery("translation failed", pc)
	if v.failures[pc] >= v.cfg.RetryBudget {
		v.quarantinePC(pc, cause)
	}
	return nil
}

// quarantinePC pins pc to interpret-only forever: it is never again
// proposed as a superblock start. Shared by the retry-budget path and
// the livelock watchdog. Idempotent per PC.
func (v *VM) quarantinePC(pc uint64, cause error) {
	if v.quarantine[pc] {
		return
	}
	v.quarantine[pc] = true
	v.Stats.Quarantines++
	v.cfg.Metrics.Event(metrics.Event{Kind: metrics.EventQuarantine, Frag: -1,
		VStart: pc, Detail: cause.Error()})
	v.cfg.Metrics.Counter("vm.recovery.quarantines").Inc()
}

// preempt stops the run at the current (precise) V-PC: accounting, the
// metrics event, and the profiler's preempt pseudo-frame, then the
// typed error the caller returns. cause is ErrPreempted (stop hook) or
// ErrBudget.
func (v *VM) preempt(cause error) error {
	v.Preemptions++
	v.stopCause = nil
	v.cfg.Metrics.Event(metrics.Event{Kind: metrics.EventPreempt, Frag: -1,
		VStart: v.cpu.PC, Detail: cause.Error()})
	v.cfg.Metrics.Counter("vm.preempt.events").Inc()
	v.cfg.Prof.Preempt(v.Stats.TransIInsts, v.Stats.TransVInsts)
	return &PreemptError{PC: v.cpu.PC, Cause: cause}
}

// shrinkCache halves the translation-cache capacity, floored at
// shrinkFloor. An unbounded cache is first pinned at its current
// occupancy so the halving bites. Only the capacity changes here; the
// flush happens at the next install, which always runs between
// fragments, so no stale code is ever mid-execution.
func (v *VM) shrinkCache() {
	c := v.tc.Capacity()
	if c <= 0 {
		c = v.tc.CodeBytes()
	}
	c /= 2
	if c < shrinkFloor {
		c = shrinkFloor
	}
	v.tc.SetCapacity(c)
}

// Injector exposes the attached fault injector (nil when chaos mode is
// off) so harnesses can reconcile applied-fault counts against the
// VM's recovery statistics.
func (v *VM) Injector() *faultinject.Injector { return v.inj }
