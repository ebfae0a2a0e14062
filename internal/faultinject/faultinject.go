// Package faultinject is the home of the seeded fault schedule that
// both chaos planes draw from (schedule.go): a splitmix64 stream, the
// enabled kinds, the MaxFaults cap and the decision and applied
// counters, with one kind-name table per plane. The VM plane's kinds
// and its Injector live here; the disk plane's are iofs.Faulty's. The
// package imports nothing else from this module, so any plane can use
// it without pulling in the VM.
//
// The Injector decides — at well-defined decision points the VM
// consults it from — whether to corrupt an installed fragment, fail or
// poison a translation, force a mid-run cache flush, raise a spurious
// trap at a fragment entry, or shrink the code cache so capacity
// pressure evicts under execution. The VM applies the fault, draws what
// to corrupt from the same stream (Injector.Next), and performs the
// recovery (see vm.Config.Faults). A fault schedule is a pure function
// of Config.Seed: replaying a seed replays the exact same faults at the
// exact same decision points, which is what lets the differential chaos
// oracle (internal/experiments) demand bit-identical architected state
// against a pure-interpreter run.
package faultinject

import "fmt"

// Kind is one VM fault class.
type Kind uint8

const (
	// KindNone is the no-fault decision.
	KindNone Kind = iota
	// KindBitFlip corrupts a random field of a random installed fragment
	// (instruction stream or PEI table). Recovery: the paranoid entry
	// re-check detects the tampering, invalidates the fragment, and falls
	// back to interpretation.
	KindBitFlip
	// KindFailTranslate makes the next translation fail with an injected
	// error. Recovery: retranslate-with-backoff, then quarantine.
	KindFailTranslate
	// KindPoisonTranslate corrupts the next translation result before it
	// is installed. Recovery: the install-time verifier rejects it and
	// the VM treats it as a failed translation.
	KindPoisonTranslate
	// KindEvict flushes the whole translation cache at a fragment entry —
	// including entries reached from *inside* translated code, so stale
	// fragment links are exercised. Recovery: dispatch/lookup misses
	// retranslate; stale links exit to the VM.
	KindEvict
	// KindSpuriousTrap raises a spurious (non-architectural) trap at a
	// fragment entry. Recovery: the entry is abandoned and the VM
	// interprets from the same V-PC; no state is lost.
	KindSpuriousTrap
	// KindShrinkCache halves the code-cache capacity (floored at 4 KiB),
	// so subsequent installs flush under pressure.
	KindShrinkCache
)

// Kinds names the VM plane's fault kinds.
var Kinds = NewTable[Kind]("faultinject",
	"none", "bitflip", "fail_translate", "poison_translate",
	"evict", "spurious_trap", "shrink_cache")

// String returns the lower-case kind name.
func (k Kind) String() string { return Kinds.Name(k) }

// AllKinds returns every injectable kind.
func AllKinds() []Kind { return Kinds.All() }

// entryKinds and translateKinds partition the kinds by the decision point
// they can fire at.
var entryKinds = []Kind{KindBitFlip, KindEvict, KindSpuriousTrap, KindShrinkCache}
var translateKinds = []Kind{KindFailTranslate, KindPoisonTranslate}

// ErrInjected is the cause attached to injected translation failures, so
// recovery accounting can tell injected faults from genuine ones.
type ErrInjected struct {
	Kind Kind
	Seq  uint64 // fault sequence number within the schedule
}

// Error implements error.
func (e *ErrInjected) Error() string {
	return fmt.Sprintf("faultinject: injected %s fault #%d", e.Kind, e.Seq)
}

// Config parameterises a fault schedule.
type Config struct {
	// Seed selects the schedule; equal seeds produce equal schedules.
	Seed uint64
	// EntryRate is the mean fragment entries between entry-point faults
	// (bitflip/evict/spurious/shrink). Default 64.
	EntryRate int
	// TranslateRate is the mean translations between translation faults
	// (fail/poison). Default 8 — translations are much rarer than entries.
	TranslateRate int
	// Kinds restricts the schedule to the listed kinds (nil = all).
	Kinds []Kind
	// MaxFaults caps the number of faults applied (0 = unlimited).
	MaxFaults int
}

// Injector is the VM plane's fault schedule. It is not safe for
// concurrent use; a nil *Injector is a valid "injection disabled"
// injector (every decision returns KindNone).
type Injector struct {
	cfg Config
	s   Schedule[Kind]
}

// New builds an injector for the given schedule.
func New(cfg Config) *Injector {
	if cfg.EntryRate <= 0 {
		cfg.EntryRate = 64
	}
	if cfg.TranslateRate <= 0 {
		cfg.TranslateRate = 8
	}
	return &Injector{cfg: cfg, s: NewSchedule(Kinds, cfg.Seed, cfg.Kinds, cfg.MaxFaults)}
}

// EntryFault is consulted at every fragment entry (top-level and chained)
// and returns the fault to apply there, or KindNone.
func (in *Injector) EntryFault() Kind {
	if in == nil {
		return KindNone
	}
	return in.s.Decide(in.cfg.EntryRate, entryKinds)
}

// TranslateFault is consulted once per superblock translation and returns
// the fault to apply to it, or KindNone.
func (in *Injector) TranslateFault() Kind {
	if in == nil {
		return KindNone
	}
	return in.s.Decide(in.cfg.TranslateRate, translateKinds)
}

// Next draws the schedule's next value, for the sub-draws that pick
// what an applied fault corrupts.
func (in *Injector) Next() uint64 { return in.s.Next() }

// Applied records that the VM actually applied a fault of the given kind
// (a decision whose application found no viable site is not counted) and
// returns the injected-fault sequence number.
func (in *Injector) Applied(k Kind) uint64 {
	if in == nil {
		return 0
	}
	return in.s.Applied(k)
}

// Counts returns the faults applied so far, by kind.
func (in *Injector) Counts() Counts[Kind] {
	if in == nil {
		return Counts[Kind]{}
	}
	return in.s.Counts()
}

// Decisions returns the number of decision points consulted.
func (in *Injector) Decisions() uint64 {
	if in == nil {
		return 0
	}
	return in.s.Decisions()
}
