// Package vm implements the co-designed virtual machine runtime: the
// interpret / profile / translate / execute mode-switching loop of §3.1,
// the MRET hot-trace collector, the functional executor for translated
// accumulator (or straightened-Alpha) code including fragment chaining,
// the dual-address return address stack, and the shared dispatch routine.
//
// The VM produces a committed-instruction trace for the timing models and
// accumulates the dynamic statistics behind every table and figure of the
// paper's evaluation.
package vm

import (
	"errors"
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
)

// Paper defaults (§4.1).
const (
	DefaultHotThreshold  = 50
	DefaultMaxSuperblock = 200
	DefaultRASSize       = 16

	// InterpCostPerInst is the modelled interpreter cost in Alpha
	// instructions per interpreted instruction (§4.1: "each interpretation
	// takes about 20 instructions").
	InterpCostPerInst = 20

	// DefaultRetryBudget bounds retranslation attempts per superblock
	// start PC before the PC is quarantined to interpret-only.
	DefaultRetryBudget = 3

	// RecoveryCostPerEvent is the modelled software cost of one recovery
	// episode in Alpha instructions — detection, invalidation, and
	// re-entering the interpreter, sized against the same §4.1 scale as
	// the 20-instruction interpretation cost. It is charged on top of the
	// per-instruction cost of the fallback interpretation itself.
	RecoveryCostPerEvent = 50
)

// Config controls the VM.
type Config struct {
	// Form and NumAcc configure the accumulator translation; ignored when
	// Straighten is set.
	Form   ildp.Form
	NumAcc int

	Chain translate.ChainMode

	// Straighten selects the code-straightening-only DBT (Alpha to
	// straightened Alpha for the conventional superscalar).
	Straighten bool

	// FuseMemOps keeps memory displacements inside load/store instructions
	// instead of splitting address computation (the §4.5 extension).
	FuseMemOps bool

	// TCacheBytes caps the translation cache; exceeding it flushes the
	// whole cache (0 = unbounded, as in the paper).
	TCacheBytes int

	// MaxPages, when > 0, caps the guest's resident memory pages
	// (mem.Memory.Limit): the access that would allocate page MaxPages+1
	// raises a precise *mem.ResourceFault trap at the faulting V-PC, on
	// both the interpreted and translated paths, counted in
	// Stats.ResourceTraps. Checkpoint restore is exempt — a resumed
	// guest gets exactly the pages its checkpoint recorded, and the cap
	// governs further growth (DESIGN.md §15).
	MaxPages int

	// Verify runs the static fragment verifier over every translation
	// before it is installed (paranoid mode): a fragment that violates the
	// I-ISA invariants aborts execution with a diagnostic report instead
	// of being run. Straightened translations are exempt (they carry no
	// accumulator invariants) but still counted as skipped.
	Verify bool

	// SemCheck runs the symbolic equivalence prover over every
	// translation before it is installed: each fragment is statically
	// proved to compute its source superblock's semantics at every exit
	// (final register state, memory effects, next V-PC; DESIGN.md §12).
	// A fragment with a counterexample aborts the run with the diverging
	// terms instead of being run. Unlike Verify, straightened
	// translations are covered too.
	SemCheck bool

	// Paranoid re-checks every fragment against an install-time pristine
	// copy on each entry (top-level and chained). A failed re-check
	// invalidates the fragment and falls back to interpretation — the
	// runtime complement to the static install-time verifier.
	Paranoid bool

	// SelfHeal converts translation and verification failures into
	// recoveries (retranslate with exponential backoff, then quarantine
	// the start PC to interpret-only) instead of aborting the run. Off by
	// default so genuine translator bugs stay loud.
	SelfHeal bool

	// RetryBudget bounds retranslation attempts per superblock start PC
	// before quarantine (default DefaultRetryBudget); only meaningful
	// with SelfHeal.
	RetryBudget int

	// Faults, when non-nil, attaches a deterministic seed-driven fault
	// injector (chaos mode). Injection only decides and corrupts; pair it
	// with Paranoid (bit-flip detection), Verify (poison rejection), and
	// SelfHeal (failure recovery) for full self-healing — the chaos
	// harness forces all three.
	Faults *faultinject.Config

	// Store, when non-nil, attaches a process-wide shared fragment
	// store (internal/fragstore): hot superblocks are content-addressed
	// by hash(superblock bytes ‖ translation config) and translated at
	// most once per process, however many VMs run concurrently; a
	// persisted store warm-starts with zero retranslation. The per-VM
	// translation cache installs a private clone of each artifact, so
	// chain patching and invalidation never touch the shared entry.
	// Verify and SemCheck still run per-VM on hits. The store is
	// bypassed entirely while a fault injector (Faults) is attached:
	// injected corruption must never enter the shared store, and store
	// hits would skip injector draws and shift the deterministic fault
	// schedule.
	Store *fragstore.Store

	// Stop, when non-nil, is the preemption hook (a context-style
	// cancellation test). It is polled only at V-instruction boundaries
	// — the top of the interpret/execute loop and every fragment entry,
	// including chained and dispatched entries inside translated code —
	// never mid-instruction, so architected state is always precise when
	// it fires. When it returns true, Run stops with a *PreemptError
	// carrying the exact V-PC; the run can be checkpointed and resumed
	// bit-identically (DESIGN.md §11).
	Stop func() bool

	// Poll, when non-nil, is the observation hook of the telemetry plane
	// (DESIGN.md §13): it is invoked at exactly the V-instruction
	// boundaries where Stop is polled — the top of the interpret/execute
	// loop and every fragment entry — so an attached observer can
	// service snapshot requests on the VM's own goroutine with the
	// architected state precise and no locks on any hot structure. Poll
	// must only read: it must not mutate VM, cache, or profiler state,
	// and it must not block unboundedly, or it delays retirement. The
	// one exception is VM.FoldCounts, which a Poll that reads Stats
	// calls first; it changes no total. When nil (the default) the cost
	// is one nil check per boundary and runs are bit-identical with and
	// without the build.
	Poll func()

	// WatchdogWindow, when > 0, arms the livelock watchdog: if the
	// retired V-instruction count stops advancing while the VM executes
	// this many instructions of work (translated I-instructions plus
	// interpreted instructions), the fragment being entered is presumed
	// livelocked — its start PC is quarantined to interpret-only and the
	// fragment invalidated through the recovery path, which guarantees
	// forward progress (the interpreter always retires).
	WatchdogWindow int64

	HotThreshold  int
	MaxSuperblock int
	RASSize       int

	// Sink, when non-nil, receives the committed-instruction trace of all
	// translated-code execution (the paper times translated code only).
	Sink trace.Sink

	// InterpSink, when non-nil, also receives records for interpreted
	// instructions (used by the "original" no-DBT baseline).
	InterpSink trace.Sink

	// Metrics, when non-nil, receives fragment lifecycle events
	// (translate, verify, install, chain, evict) and per-fragment
	// translation histograms as the run progresses; Stats.Publish adds
	// the aggregate counters at the end of a run. A nil registry
	// disables all collection at near-zero cost and never changes
	// simulation results.
	Metrics *metrics.Registry

	// Prof, when non-nil, receives execution-trace events (fragment
	// enter/exit, chain-transition verdicts, translations, evictions)
	// as the run progresses; attach the same profiler to the timing
	// model (SetProfiler) for cycle-exact attribution. A nil profiler
	// disables tracing at near-zero cost and never changes simulation
	// results.
	Prof *prof.Profiler
}

// DefaultConfig returns the paper's baseline: modified ISA, four
// accumulators, software prediction plus dual-address RAS.
func DefaultConfig() Config {
	return Config{
		Form:          ildp.Modified,
		NumAcc:        ildp.DefaultAccumulators,
		Chain:         translate.SWPredRAS,
		HotThreshold:  DefaultHotThreshold,
		MaxSuperblock: DefaultMaxSuperblock,
		RASSize:       DefaultRASSize,
	}
}

// ErrBudget is returned by Run when the V-instruction budget is exhausted.
var ErrBudget = errors.New("vm: instruction budget exhausted")

// ErrPreempted matches (via errors.Is) every *PreemptError: any run
// stopped at a V-instruction boundary by the Stop hook or the budget.
var ErrPreempted = errors.New("vm: preempted")

// PreemptError is returned by Run when execution is interrupted at a
// V-instruction boundary: the Stop hook fired, or the V-instruction
// budget ran out. PC is the precise architected V-PC at the boundary —
// the exact point a checkpoint taken now resumes from. It matches
// ErrPreempted always, and additionally ErrBudget when the budget was
// the cause, so budget exhaustion is now just a preemption.
type PreemptError struct {
	PC    uint64
	Cause error // ErrPreempted (stop hook) or ErrBudget
}

// Error reports the cause and the V-PC the run stopped at.
func (e *PreemptError) Error() string {
	return fmt.Sprintf("%v at V-PC %#x", e.Cause, e.PC)
}

// Unwrap exposes the cause (errors.Is(err, ErrBudget) for budget trips).
func (e *PreemptError) Unwrap() error { return e.Cause }

// Is reports every preemption as ErrPreempted regardless of cause.
func (e *PreemptError) Is(target error) bool { return target == ErrPreempted }

// VM is a co-designed virtual machine instance.
type VM struct {
	cfg Config
	cpu *emu.CPU
	mem *mem.Memory
	tc  *tcache.Cache

	// rf is translated code's register file (see execTranslated): the
	// I-ISA GPRs, the accumulators and the executor's fixed slots.
	rf  [256]uint64
	ras dualRAS

	counters map[uint64]int

	recording bool
	sb        translate.Superblock
	inTrace   map[uint64]bool

	// Self-healing state: the fault injector (nil when chaos mode is
	// off), per-start-PC translation-failure counts feeding the backoff,
	// the interpret-only quarantine set, and whether the VM is currently
	// interpreting as recovery fallback.
	inj        *faultinject.Injector
	failures   map[uint64]int
	quarantine map[uint64]bool
	inFallback bool

	// Livelock-watchdog state: the retired V-instruction count and work
	// total (translated I-insts + interpreted insts) at the last time
	// retirement was observed to advance.
	wdRetired uint64
	wdWork    uint64

	// budget is the running Run's maxVInsts. stopCause is set when the
	// budget or the Stop hook refuses a fragment entry; Run turns it into
	// a preemption at that entry's V-start.
	budget    int64
	stopCause error

	// visit is the fragment translated code is executing, whose
	// instructions are not yet counted in Stats; nil outside a visit
	// (see execTranslated). faultIdx is the index in visit of the last
	// instruction that could panic, published just before it runs.
	visit    *tcache.Fragment
	faultIdx int

	// dispRecs are the dispatch routine's record templates, built only
	// when a Sink is attached. interpRecs memoises the static half of
	// interpreted instructions' records, indexed by PC like the decode
	// memo and keyed by instruction word; it is allocated only when
	// InterpSink is set.
	dispRecs   []trace.Rec
	interpRecs *[emu.MemoSlots]interpRec

	// testMutateResult, when set, corrupts each translation before the
	// verifier sees it — the test hook proving paranoid mode rejects bad
	// installs.
	testMutateResult func(res *translate.Result)

	// storeToken is the VM's creator token in the shared fragment store:
	// a separate allocation, so store entries never keep the VM alive
	// once its owner releases it.
	storeToken *byte

	Stats Stats

	// Preemptions counts the stop-hook and budget preemptions taken. It
	// is the scheduler's event, not the guest's: kept out of Stats and
	// never checkpointed.
	Preemptions uint64
}

// New creates a VM around the given memory image.
func New(m *mem.Memory, cfg Config) *VM {
	if cfg.HotThreshold <= 0 {
		cfg.HotThreshold = DefaultHotThreshold
	}
	if cfg.MaxSuperblock <= 0 {
		cfg.MaxSuperblock = DefaultMaxSuperblock
	}
	if cfg.RASSize <= 0 {
		cfg.RASSize = DefaultRASSize
	}
	if cfg.NumAcc <= 0 {
		cfg.NumAcc = ildp.DefaultAccumulators
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	form := cfg.Form
	tc := tcache.New(form)
	if cfg.TCacheBytes > 0 {
		tc.SetCapacity(cfg.TCacheBytes)
	}
	tc.SetMetrics(cfg.Metrics)
	tc.SetProfiler(cfg.Prof)
	if cfg.Paranoid {
		tc.EnableShadow()
	}
	v := &VM{
		cfg:        cfg,
		cpu:        emu.New(m),
		mem:        m,
		tc:         tc,
		counters:   map[uint64]int{},
		failures:   map[uint64]int{},
		quarantine: map[uint64]bool{},
		ras:        newDualRAS(cfg.RASSize),
		storeToken: new(byte),
	}
	if cfg.Faults != nil {
		v.inj = faultinject.New(*cfg.Faults)
	}
	if cfg.Sink != nil {
		v.dispRecs = dispatchRecs(tc)
	}
	if cfg.InterpSink != nil {
		v.interpRecs = new([emu.MemoSlots]interpRec)
	}
	if cfg.MaxPages > 0 {
		m.Limit = cfg.MaxPages
	}
	return v
}

// CPU exposes the architected state (for loading programs and inspecting
// results).
func (v *VM) CPU() *emu.CPU { return v.cpu }

// TCache exposes the translation cache (for inspection and examples).
func (v *VM) TCache() *tcache.Cache { return v.tc }

// LoadProgram loads an assembled program and sets the entry point.
func (v *VM) LoadProgram(p *alphaprog.Program) error { return v.cpu.LoadProgram(p) }

// Pages returns the guest's resident page count — the gauge the serve
// scheduler's spill-pressure logic and the telemetry plane read.
func (v *VM) Pages() int { return v.mem.PageCount() }

// noteRunError classifies a terminal run error before it propagates:
// precise traps whose cause is the page-limit governor are counted in
// Stats.ResourceTraps so governance kills are visible in telemetry and
// checkpoints (its statFields row carries the counter).
func (v *VM) noteRunError(err error) error {
	if err == nil {
		return nil
	}
	var rf *mem.ResourceFault
	if errors.As(err, &rf) {
		v.Stats.ResourceTraps++
	}
	return err
}

// Run executes until the program halts, a trap propagates, or maxVInsts
// V-ISA instructions have retired (0 = unlimited). The budget is checked
// wherever Stop is polled, so a budget preemption lands on the same
// V-instruction boundary however often the run was preempted before
// it. Out-of-domain semantic panics from the emulator core
// (*emu.SemanticsError) are recovered here and surfaced as ordinary
// errors tagged with the faulting instruction's V-PC, which the CPU
// then holds; any other panic propagates. Stats is complete when Run
// returns (FoldCounts).
func (v *VM) Run(maxVInsts int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*emu.SemanticsError)
			if !ok {
				panic(r)
			}
			if v.visit != nil {
				// The panic came from translated code. Close its visit;
				// like a trapping instruction, the faulting one is not
				// counted. The panic skipped execTranslated's write-back,
				// and the CPU's V-PC is still the episode's entry, so
				// name the faulting instruction's.
				if vpc := v.visit.Insts[v.faultIdx].VPC; vpc != 0 {
					v.cpu.PC = vpc
				}
				v.leave(v.faultIdx)
				v.writeBack()
			}
			err = fmt.Errorf("vm: at V-PC %#x: %w", v.cpu.PC, se)
		}
		v.FoldCounts()
	}()
	v.budget = maxVInsts
	for !v.cpu.Halted {
		if maxVInsts > 0 && int64(v.Stats.TotalVInsts()) >= maxVInsts {
			return v.preempt(ErrBudget)
		}
		v.poll()
		if stop := v.cfg.Stop; stop != nil && stop() {
			return v.preempt(ErrPreempted)
		}
		if !v.recording {
			if frag := v.tc.Lookup(v.cpu.PC); frag != nil && v.fragUsable(frag) {
				v.inFallback = false
				exitPC, err := v.execTranslated(frag)
				if err != nil {
					return v.noteRunError(err)
				}
				if v.cpu.Halted {
					return nil
				}
				v.cpu.PC = exitPC
				if v.stopCause == nil {
					v.Stats.Exits++
					v.noteCandidate(exitPC)
					continue
				}
			}
			// A refused entry, here or chained inside translated code,
			// preempts at its V-start with no Exits and no interpreted
			// step, so preemption leaves Stats unchanged.
			if v.stopCause != nil {
				return v.preempt(v.stopCause)
			}
		}
		if err := v.interpStep(); err != nil {
			return v.noteRunError(err)
		}
	}
	return nil
}

// noteCandidate bumps the §3.1 trace-start counter for pc (targets of
// indirect jumps, targets of backward taken branches, exit targets of
// existing fragments) and begins recording when it crosses the
// threshold. Quarantined PCs never re-enter translation; PCs whose
// translations have failed see an exponentially backed-off threshold,
// so a transiently-failing superblock retries cheaply while a
// persistently-failing one converges to interpret-only within the
// retry budget.
func (v *VM) noteCandidate(pc uint64) {
	if v.recording || v.tc.Lookup(pc) != nil || v.quarantine[pc] {
		return
	}
	v.counters[pc]++
	threshold := v.cfg.HotThreshold
	if n := v.failures[pc]; n > 0 {
		if n > 16 {
			n = 16
		}
		threshold <<= n
	}
	if v.counters[pc] >= threshold {
		delete(v.counters, pc)
		v.recording = true
		v.sb = translate.Superblock{StartPC: pc}
		v.inTrace = map[uint64]bool{}
	}
}

// interpStep interprets one instruction, profiling and (when hot)
// recording the executed path for superblock formation. inst points
// into the CPU's decode memo, so the recorded superblock keeps a copy.
func (v *VM) interpStep() error {
	pc := v.cpu.PC
	inst, err := v.cpu.FetchDecode()
	if err != nil {
		return err
	}

	// Trap-class instructions end superblock collection before executing
	// (§3.1); they are always interpreted.
	if v.recording && isTraceBarrier(inst) {
		if err := v.finishRecording(translate.EndTrap, pc); err != nil {
			return err
		}
	}

	// Effective addresses must be captured before execution (the base
	// register may be overwritten).
	var memAddr uint64
	if v.cfg.InterpSink != nil && inst.IsMem() {
		memAddr = v.cpu.ReadReg(inst.Rb) + uint64(int64(inst.Disp))
		if inst.Op == alpha.OpLDQU || inst.Op == alpha.OpSTQU {
			memAddr &^= 7
		}
	}

	if err := v.cpu.Exec(inst); err != nil {
		if v.recording {
			// A trap aborts collection.
			v.recording = false
			v.inTrace = nil
		}
		return err
	}
	v.Stats.InterpInsts++
	if v.inFallback {
		v.Stats.FallbackInsts++
	}
	next := v.cpu.PC
	taken := inst.IsBranch() && next != pc+alpha.InstBytes

	if v.cfg.InterpSink != nil {
		e := &v.interpRecs[emu.MemoIndex(pc)]
		if e.rec.Size == 0 || e.word != inst.Raw {
			*e = interpRec{word: inst.Raw, rec: alphaRec(inst)}
		}
		rec := e.rec
		rec.PC = pc
		rec.MemAddr = memAddr
		if inst.IsBranch() {
			rec.Taken, rec.Target = taken, next
		}
		v.cfg.InterpSink.Append(rec)
	}

	if v.recording {
		rec := translate.SBInst{PC: pc, Inst: *inst}
		if inst.IsCondBranch() {
			rec.Taken = taken
		}
		if inst.IsIndirect() {
			rec.PredTarget = next
		}
		v.inTrace[pc] = true
		v.sb.Insts = append(v.sb.Insts, rec)

		switch {
		case inst.IsIndirect():
			return v.finishRecording(translate.EndIndirect, 0)
		case inst.IsCondBranch() && taken && next <= pc:
			// Backward taken conditional branch ends the fragment; the
			// fall-through is the cold continuation.
			return v.finishRecording(translate.EndBackward, pc+alpha.InstBytes)
		case v.inTrace[next]:
			return v.finishRecording(translate.EndCycle, next)
		case v.tc.Lookup(next) != nil:
			// Control reached an existing fragment: stop so the exits can
			// link rather than duplicating its code.
			return v.finishRecording(translate.EndCycle, next)
		case len(v.sb.Insts) >= v.cfg.MaxSuperblock:
			return v.finishRecording(translate.EndMaxSize, next)
		}
		return nil
	}

	// Profiling: candidate program counters are targets of indirect jumps
	// and targets of backward taken conditional branches.
	if inst.IsIndirect() {
		v.noteCandidate(next)
	} else if inst.IsCondBranch() && taken && next <= pc {
		v.noteCandidate(next)
	}
	return nil
}

// isTraceBarrier reports whether the instruction must end superblock
// collection and stay interpreted (PAL calls, unimplemented opcodes, and
// RPCC, whose result is execution-mode dependent).
func isTraceBarrier(inst *alpha.Inst) bool {
	switch inst.Op {
	case alpha.OpCallPAL, alpha.OpUnsupported, alpha.OpInvalid, alpha.OpRPCC:
		return true
	}
	return false
}

// finishRecording translates and installs the collected superblock.
func (v *VM) finishRecording(end translate.EndKind, nextPC uint64) error {
	v.recording = false
	v.inTrace = nil
	sb := v.sb
	sb.End = end
	sb.NextPC = nextPC
	v.sb = translate.Superblock{}

	if v.failures[sb.StartPC] > 0 {
		v.Stats.Retranslations++
	}
	injectKind := v.inj.TranslateFault()
	if injectKind == faultinject.KindFailTranslate {
		seq := v.inj.Applied(injectKind)
		return v.translateFailed(sb.StartPC,
			&faultinject.ErrInjected{Kind: injectKind, Seq: seq})
	}

	var res *translate.Result
	var err error
	var viaStore, storeHit, storeShared bool
	var storeKey fragstore.Key
	// The shared store is bypassed whenever a fault injector or the test
	// mutation hook is active: corrupt artifacts must never enter the
	// process-wide store, and a store hit would skip injector draws and
	// shift the deterministic fault schedule. A superblock with no
	// canonical content address (KeyOf error) translates privately.
	if v.cfg.Store != nil && v.inj == nil && v.testMutateResult == nil {
		key, content, kerr := fragstore.KeyOf(&sb, v.storeConfig())
		if kerr == nil {
			viaStore, storeKey = true, key
			res, storeHit, storeShared, err = v.cfg.Store.Do(key, content, v.storeToken,
				func() (*translate.Result, error) { return v.translateSB(&sb) })
		}
	}
	if !viaStore {
		res, err = v.translateSB(&sb)
	}
	if err != nil {
		if errors.Is(err, translate.ErrEmptySuperblock) {
			return nil // nothing worth translating (all NOPs)
		}
		return v.translateFailed(sb.StartPC,
			fmt.Errorf("vm: translating superblock at %#x: %w", sb.StartPC, err))
	}
	if injectKind == faultinject.KindPoisonTranslate && v.cfg.Verify {
		// Poison is only applied where the install-time verifier will
		// provably catch it (accumulator fragments under Verify); an
		// unapplied decision is not counted as an injected fault.
		if v.inj.CorruptResult(res) {
			v.inj.Applied(injectKind)
		}
	}
	if storeHit {
		// Reused artifact: no translation happened in this VM, so no
		// translate event, histograms, or cost — a hit's whole point is
		// that the work (and its accounting) stays un-redone.
		v.Stats.StoreHits++
		detail := "private"
		if storeShared {
			v.Stats.StoreSharedHits++
			detail = "shared"
		}
		v.cfg.Metrics.Event(metrics.Event{Kind: metrics.EventStoreHit, Frag: -1,
			VStart: res.VStart, SrcInsts: res.SrcCount, OutInsts: len(res.Insts),
			CodeBytes: res.CodeBytes, Detail: detail})
		v.cfg.Prof.StoreHit(res.VStart, storeShared)
	} else {
		if viaStore {
			v.Stats.StoreMisses++
		}
		v.cfg.Metrics.Event(metrics.Event{Kind: metrics.EventTranslate, Frag: -1,
			VStart: res.VStart, SrcInsts: res.SrcCount, OutInsts: len(res.Insts),
			CodeBytes: res.CodeBytes, Cost: res.Cost})
		v.cfg.Metrics.Histogram("translate.cost_per_fragment").Observe(float64(res.Cost))
		v.cfg.Metrics.Histogram("translate.src_insts_per_fragment").Observe(float64(res.SrcCount))
		v.cfg.Metrics.Histogram("translate.code_bytes_per_fragment").Observe(float64(res.CodeBytes))
		v.cfg.Prof.Translate(res.VStart, res.SrcCount, len(res.Insts), res.Cost)
	}
	if v.testMutateResult != nil {
		v.testMutateResult(res)
	}
	var want iverify.Checks
	if v.cfg.Verify {
		want |= iverify.CheckRules
	}
	if v.cfg.SemCheck {
		want |= iverify.CheckProof
	}
	adm, err := iverify.Admit(res, &sb, iverify.Config{
		Form: v.cfg.Form, NumAcc: v.cfg.NumAcc, Chain: v.cfg.Chain,
	}, want)
	if rep := adm.Rules; rep != nil {
		v.cfg.Metrics.Event(metrics.Event{Kind: metrics.EventVerify, Frag: -1,
			VStart: res.VStart, OK: rep.OK(), Skipped: rep.Skipped})
		if rep.OK() && !rep.Skipped {
			v.Stats.FragsVerified++
		}
	}
	if rep := adm.Proof; rep != nil {
		v.cfg.Metrics.Event(metrics.Event{Kind: metrics.EventProve, Frag: -1,
			VStart: res.VStart, OK: rep.OK()})
		if rep.OK() {
			v.Stats.FragsProved++
		}
	}
	if err != nil {
		return v.translateFailed(sb.StartPC, fmt.Errorf("vm: %w", err))
	}
	if viaStore {
		// The store's artifact is immutable and possibly shared with
		// other VMs; install a private clone so exit patching and
		// invalidation stay session-local. This holds on misses too —
		// the result Do returned on a miss is the entry it published.
		if _, err := v.tc.InstallShared(fragstore.CloneForInstall(res), storeKey, storeShared); err != nil {
			return err
		}
	} else if _, err := v.tc.Install(res); err != nil {
		return err
	}
	delete(v.failures, sb.StartPC)
	s := &v.Stats
	s.Fragments++
	s.SrcInstsTranslated += int64(res.SrcCount)
	s.NOPsRemoved += int64(res.NOPCount)
	s.BranchElims += int64(res.BranchElims)
	if !storeHit {
		s.TranslateCost += res.Cost
	}
	s.StaticCodeBytes += int64(res.CodeBytes)
	s.StaticSrcBytes += int64(res.SrcBytes)
	s.StaticCopies += int64(res.CopyCount)
	s.StaticChain += int64(res.ChainCount)
	s.Spills += int64(res.SpillCount)
	s.UsageStatic.Add(res.Usage)
	return nil
}

// translateSB runs the configured translator over one superblock — the
// pure function the shared fragment store memoizes.
func (v *VM) translateSB(sb *translate.Superblock) (*translate.Result, error) {
	cfg := v.storeConfig()
	if cfg.Straighten {
		return translate.Straighten(sb, cfg.Translate.Chain)
	}
	return translate.Translate(sb, cfg.Translate)
}

// storeConfig returns this VM's translation configuration as the
// fragment store addresses it.
func (v *VM) storeConfig() fragstore.Config {
	return fragstore.Config{
		Straighten: v.cfg.Straighten,
		Translate: translate.Config{
			Form: v.cfg.Form, NumAcc: v.cfg.NumAcc, Chain: v.cfg.Chain,
			FuseMemOps: v.cfg.FuseMemOps,
		},
	}
}

// interpRec is one slot of the interpreter's record memo: an
// instruction word and the static half of its record. A slot whose
// record has Size 0 is empty.
type interpRec struct {
	word alpha.Word
	rec  trace.Rec
}

// alphaRec builds the static half of the trace record of one
// interpreted Alpha instruction: every field but PC, MemAddr, Taken and
// Target. It depends only on the instruction word.
func alphaRec(inst *alpha.Inst) trace.Rec {
	rec := trace.Rec{
		Size:   alpha.InstBytes,
		SrcReg: [2]uint8{trace.NoReg, trace.NoReg},
		DstReg: trace.NoReg,
		SrcAcc: trace.NoAcc,
		DstAcc: trace.NoAcc,
	}
	var buf [3]alpha.Reg
	srcs := inst.Sources(buf[:0])
	for i, r := range srcs {
		if i >= 2 {
			break
		}
		rec.SrcReg[i] = uint8(r)
	}
	if d := inst.Dest(); d != alpha.RegZero {
		rec.DstReg = uint8(d)
		rec.DstOperational = true
	}
	switch {
	case inst.IsNOP():
		rec.Class = trace.ClassNop
	case inst.Op == alpha.OpMULL || inst.Op == alpha.OpMULQ || inst.Op == alpha.OpUMULH:
		rec.Class = trace.ClassMul
	case inst.IsLoad():
		rec.Class = trace.ClassLoad
		rec.MemWidth = emu.MemWidth(inst.Op)
	case inst.IsStore():
		rec.Class = trace.ClassStore
		rec.MemWidth = emu.MemWidth(inst.Op)
	case inst.IsCondBranch():
		rec.Class = trace.ClassBranch
	case inst.Op == alpha.OpBSR:
		rec.Class = trace.ClassCall
	case inst.Op == alpha.OpJSR || inst.Op == alpha.OpJSRCoroutine:
		rec.Class = trace.ClassCall
		rec.Indirect = true
	case inst.Op == alpha.OpBR:
		rec.Class = trace.ClassJump
	case inst.Op == alpha.OpRET:
		rec.Class = trace.ClassRet
	case inst.Op == alpha.OpJMP:
		rec.Class = trace.ClassInd
		rec.Indirect = true
	default:
		rec.Class = trace.ClassALU
	}
	rec.VCredit = 1
	return rec
}
