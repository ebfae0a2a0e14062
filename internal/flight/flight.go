// Package flight is the crash-repro flight recorder (DESIGN.md §15): on
// any session or run failure — a guest trap, a resource-governance
// kill, budget exhaustion, a quarantined panic, or an injected I/O fault
// — the system emits a versioned, CRC-guarded bundle holding everything
// a deterministic re-execution needs: the guest image, the translation
// and governance config fingerprint, the VM fault-injection schedule (if
// chaos was active), the checkpoint the failing segment started from,
// the flattened counters at failure, and an informational event tail.
//
// Replay reconstructs the VM from the bundle and re-executes the failing
// segment; Matches then demands the bit-identical failure — same kind,
// same V-PC, same execution counters — which is what turns "a guest died
// in production" into an executable, checkable artifact
// (`ildpchaos -replay BUNDLE`).
//
// The on-disk format is an internal/codec envelope (docs/FORMAT.md):
// fixed-width little-endian fields, sorted nonzero counters, a
// CRC-64/ECMA trailer verified before structural parsing, typed
// *codec.Error decode failures, and Encode(Decode(b)) == b for every
// accepted b.
package flight

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/codec"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/vm"
)

// Version is the current bundle format version.
const Version = 1

// format is the bundle stream's envelope (internal/codec).
var format = codec.Format{
	Name:    "flight",
	Magic:   [8]byte{'A', 'C', 'C', 'D', 'B', 'T', 'F', 'R'},
	Version: Version,
}

// Failure kinds recorded in Bundle.Kind and produced by Classify.
const (
	// KindTrap is a precise guest trap (access, alignment, arithmetic).
	KindTrap = "trap"
	// KindResource is a page-limit governance kill: a precise trap whose
	// cause is *mem.ResourceFault.
	KindResource = "resource"
	// KindBudget is cumulative V-instruction budget exhaustion.
	KindBudget = "budget"
	// KindCrash is a panic quarantined by a crash barrier.
	KindCrash = "crash"
	// KindIOFault is a host-side persistence failure (spill, checkpoint,
	// or cache I/O). The guest itself did not fail: Replay verifies the
	// recorded architected state instead of re-executing.
	KindIOFault = "io_fault"
	// KindDone is a clean halt — never bundled, but Classify and Replay
	// report it so a non-reproducing failure is loudly visible.
	KindDone = "done"
	// KindError is any other terminal error.
	KindError = "error"
)

// VMConfig is the translation + governance fingerprint a replay needs
// to rebuild the exact VM. It deliberately excludes hooks, sinks,
// metrics, and the shared store: none of them change architected
// behaviour (the store only dedups translation work), and excluding
// them keeps bundles self-contained.
type VMConfig struct {
	Form           ildp.Form
	NumAcc         int
	Chain          translate.ChainMode
	Straighten     bool
	FuseMemOps     bool
	TCacheBytes    int
	MaxPages       int
	Verify         bool
	SemCheck       bool
	Paranoid       bool
	SelfHeal       bool
	RetryBudget    int
	WatchdogWindow int64
	HotThreshold   int
	MaxSuperblock  int
	RASSize        int
}

// CaptureConfig extracts the replay fingerprint from a live vm.Config.
func CaptureConfig(cfg vm.Config) VMConfig {
	return VMConfig{
		Form:           cfg.Form,
		NumAcc:         cfg.NumAcc,
		Chain:          cfg.Chain,
		Straighten:     cfg.Straighten,
		FuseMemOps:     cfg.FuseMemOps,
		TCacheBytes:    cfg.TCacheBytes,
		MaxPages:       cfg.MaxPages,
		Verify:         cfg.Verify,
		SemCheck:       cfg.SemCheck,
		Paranoid:       cfg.Paranoid,
		SelfHeal:       cfg.SelfHeal,
		RetryBudget:    cfg.RetryBudget,
		WatchdogWindow: cfg.WatchdogWindow,
		HotThreshold:   cfg.HotThreshold,
		MaxSuperblock:  cfg.MaxSuperblock,
		RASSize:        cfg.RASSize,
	}
}

// VM expands the fingerprint back into a vm.Config (hooks and sinks
// nil).
func (c VMConfig) VM() vm.Config {
	return vm.Config{
		Form:           c.Form,
		NumAcc:         c.NumAcc,
		Chain:          c.Chain,
		Straighten:     c.Straighten,
		FuseMemOps:     c.FuseMemOps,
		TCacheBytes:    c.TCacheBytes,
		MaxPages:       c.MaxPages,
		Verify:         c.Verify,
		SemCheck:       c.SemCheck,
		Paranoid:       c.Paranoid,
		SelfHeal:       c.SelfHeal,
		RetryBudget:    c.RetryBudget,
		WatchdogWindow: c.WatchdogWindow,
		HotThreshold:   c.HotThreshold,
		MaxSuperblock:  c.MaxSuperblock,
		RASSize:        c.RASSize,
	}
}

// Bundle is one recorded failure. Program or Checkpoint (or both) must
// be present: Replay restores the checkpoint when it has one, else
// boots the program from its image.
type Bundle struct {
	// Kind is the failure class (Kind* constants).
	Kind string
	// VPC is the architected V-PC at failure — the trap PC for precise
	// traps, the boundary PC otherwise.
	VPC uint64
	// Cause is the human-readable failure cause.
	Cause string
	// Config is the replay fingerprint.
	Config VMConfig
	// Faults is the VM-level fault-injection schedule active during the
	// failing run, nil when chaos was off. Replaying it reproduces the
	// exact same injected faults (they are a pure function of the seed).
	Faults *faultinject.Config
	// Budget is the V-instruction cap the failing segment ran under
	// (vm.Run's argument; 0 = unlimited). Essential for KindBudget.
	Budget int64
	// Program is the alphaprog image (may be nil when Checkpoint is
	// set — a resumed session's memory lives in its checkpoint).
	Program []byte
	// Checkpoint is the encoded architected state the failing segment
	// started from; nil means the segment booted from Program.
	Checkpoint []byte
	// Counters is the flattened VM accounting at the moment of failure
	// (vm.Checkpoint().Counters). Matches compares it modulo the
	// store-dependent exclusions.
	Counters map[string]uint64
	// Events is the informational event tail (admission, quanta, the
	// failure line). Never compared.
	Events []string
}

// flagFields lists the config booleans of the encoded flags byte in
// bit order, bit 0 first; every higher bit must be zero.
func flagFields(c *VMConfig) [6]*bool {
	return [...]*bool{&c.Straighten, &c.FuseMemOps, &c.Verify, &c.SemCheck, &c.Paranoid, &c.SelfHeal}
}

// Encode serializes the bundle. The output is deterministic: encoding
// the same bundle twice yields identical bytes.
func Encode(b *Bundle) []byte {
	w := format.NewWriter(128 + len(b.Cause) + len(b.Program) + len(b.Checkpoint))
	w.U8(byte(len(b.Kind)))
	w.Raw([]byte(b.Kind))
	w.U64(b.VPC)
	w.Blob([]byte(b.Cause))

	c := b.Config
	w.U8(byte(c.Form))
	w.U8(byte(c.Chain))
	w.U32(uint32(c.NumAcc))
	var flags byte
	for bit, on := range flagFields(&c) {
		if *on {
			flags |= 1 << bit
		}
	}
	w.U8(flags)
	w.U64(uint64(c.TCacheBytes))
	w.U64(uint64(c.MaxPages))
	w.U32(uint32(c.RetryBudget))
	w.U64(uint64(c.WatchdogWindow))
	w.U32(uint32(c.HotThreshold))
	w.U32(uint32(c.MaxSuperblock))
	w.U32(uint32(c.RASSize))

	if f := b.Faults; f != nil {
		w.U8(1)
		w.U64(f.Seed)
		w.U32(uint32(f.EntryRate))
		w.U32(uint32(f.TranslateRate))
		w.U32(uint32(f.MaxFaults))
		w.U8(byte(len(f.Kinds)))
		for _, k := range f.Kinds {
			w.U8(byte(k))
		}
	} else {
		w.U8(0)
	}

	w.U64(uint64(b.Budget))
	w.Blob(b.Program)
	w.Blob(b.Checkpoint)
	w.Counters(b.Counters)
	w.U32(uint32(len(b.Events)))
	for _, ev := range b.Events {
		w.Blob([]byte(ev))
	}
	return w.Seal()
}

// Decode parses a bundle stream. Any malformation — truncation, a
// flipped bit (caught by the checksum), a version skew, non-canonical
// ordering, or trailing garbage — returns a typed *codec.Error and a
// nil Bundle; a non-nil Bundle is always complete and internally
// consistent.
func Decode(b []byte) (*Bundle, error) {
	r, err := format.Open(b)
	if err != nil {
		return nil, err
	}
	bu := &Bundle{}
	kindLen := r.U8()
	if kindLen == 0 {
		r.Fail(codec.ErrCanonical, "empty kind")
	}
	bu.Kind = string(r.Take(int(kindLen)))
	bu.VPC = r.U64()
	bu.Cause = string(r.Blob())

	c := &bu.Config
	c.Form = ildp.Form(r.U8())
	c.Chain = translate.ChainMode(r.U8())
	c.NumAcc = int(r.U32())
	flags := r.U8()
	fields := flagFields(c)
	if unknown := flags >> len(fields); unknown != 0 {
		r.Fail(codec.ErrCanonical, "unknown flag bits %#x", unknown<<len(fields))
	}
	for bit, on := range fields {
		*on = flags&(1<<bit) != 0
	}
	c.TCacheBytes = int(r.U64())
	c.MaxPages = int(r.U64())
	c.RetryBudget = int(r.U32())
	c.WatchdogWindow = int64(r.U64())
	c.HotThreshold = int(r.U32())
	c.MaxSuperblock = int(r.U32())
	c.RASSize = int(r.U32())

	switch present := r.U8(); present {
	case 0:
	case 1:
		f := &faultinject.Config{Seed: r.U64()}
		f.EntryRate = int(r.U32())
		f.TranslateRate = int(r.U32())
		f.MaxFaults = int(r.U32())
		for n := r.U8(); n > 0; n-- {
			f.Kinds = append(f.Kinds, faultinject.Kind(r.U8()))
		}
		bu.Faults = f
	default:
		r.Fail(codec.ErrCanonical, "faults-present byte %d", present)
	}

	bu.Budget = int64(r.U64())
	if prog := r.Blob(); len(prog) > 0 {
		bu.Program = append([]byte(nil), prog...)
	}
	if ckpt := r.Blob(); len(ckpt) > 0 {
		bu.Checkpoint = append([]byte(nil), ckpt...)
	}
	if bu.Program == nil && bu.Checkpoint == nil {
		r.Fail(codec.ErrCanonical, "bundle has neither program nor checkpoint")
	}
	bu.Counters = r.Counters()
	for n := r.Count(4); n > 0 && r.Err() == nil; n-- {
		bu.Events = append(bu.Events, string(r.Blob()))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return bu, nil
}

// Classify maps a terminal vm.Run error to its failure kind. The bool
// reports whether the outcome is bundle-worthy (a failure, not a clean
// halt or an ordinary preemption).
func Classify(err error) (kind string, failure bool) {
	switch {
	case err == nil:
		return KindDone, false
	case func() bool { var rf *mem.ResourceFault; return errors.As(err, &rf) }():
		return KindResource, true
	case func() bool { var tr *emu.Trap; return errors.As(err, &tr) }():
		return KindTrap, true
	case errors.Is(err, vm.ErrBudget):
		return KindBudget, true
	case errors.Is(err, vm.ErrPreempted):
		return KindError, false
	default:
		return KindError, true
	}
}

// Result is the outcome of a Replay.
type Result struct {
	// Kind is the failure class the re-execution reached.
	Kind string
	// VPC is the architected V-PC at the re-executed failure.
	VPC uint64
	// Cause is the re-executed failure's error text.
	Cause string
	// Counters is the flattened VM accounting at the re-executed
	// failure.
	Counters map[string]uint64
}

// Replay re-executes the bundle's failing segment: it rebuilds the VM
// from the config fingerprint (and fault schedule), restores the
// checkpoint (or boots the program), runs under the recorded budget
// with a crash barrier, and classifies the outcome. KindIOFault
// bundles record a host-side failure, not a guest one, so Replay
// verifies the recorded architected state instead of running.
func Replay(b *Bundle) (*Result, error) {
	if b.Kind == "" {
		return nil, errors.New("flight: bundle has no kind")
	}
	m := mem.New()
	cfg := b.Config.VM()
	cfg.Faults = b.Faults
	v := vm.New(m, cfg)
	if len(b.Checkpoint) > 0 {
		st, err := checkpoint.Decode(b.Checkpoint)
		if err != nil {
			return nil, fmt.Errorf("flight: bundle checkpoint: %w", err)
		}
		v.Restore(st)
	} else {
		prog, err := alphaprog.Load(bytes.NewReader(b.Program))
		if err != nil {
			return nil, fmt.Errorf("flight: bundle program: %w", err)
		}
		if err := v.LoadProgram(prog); err != nil {
			return nil, fmt.Errorf("flight: load program: %w", err)
		}
	}

	res := &Result{}
	if b.Kind == KindIOFault {
		// Host-side failure: the recorded state is the evidence. Verify
		// it reconstructs exactly (the checkpoint CRC already proved the
		// bytes; this proves the bundle's own fields agree with them).
		res.Kind = KindIOFault
		res.VPC = v.CPU().PC
		res.Counters = v.Checkpoint().Counters
		return res, nil
	}

	runErr := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				res.Kind = KindCrash
				res.Cause = fmt.Sprintf("panic: %v", r)
				err = nil
			}
		}()
		return v.Run(b.Budget)
	}()
	if res.Kind != KindCrash {
		kind, _ := Classify(runErr)
		res.Kind = kind
		if runErr != nil {
			res.Cause = runErr.Error()
		}
	}
	res.VPC = v.CPU().PC
	res.Counters = v.Checkpoint().Counters
	return res, nil
}

// Matches checks that a replay reproduced the recorded failure: same
// kind, same V-PC, and identical counters except the store-dependent
// ones (vm.StoreDependent). A nil return is the bit-identical verdict;
// otherwise the error names the first divergence.
func (r *Result) Matches(b *Bundle) error {
	if r.Kind != b.Kind {
		return fmt.Errorf("flight: kind diverges: replay %s, bundle %s", r.Kind, b.Kind)
	}
	if r.VPC != b.VPC {
		return fmt.Errorf("flight: V-PC diverges: replay %#x, bundle %#x", r.VPC, b.VPC)
	}
	names := map[string]bool{}
	for name := range r.Counters {
		names[name] = true
	}
	for name := range b.Counters {
		names[name] = true
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		if vm.StoreDependent(name) {
			continue
		}
		if got, want := r.Counters[name], b.Counters[name]; got != want {
			return fmt.Errorf("flight: counter %s diverges: replay %d, bundle %d", name, got, want)
		}
	}
	return nil
}
