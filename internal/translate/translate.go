// Package translate implements the dynamic binary translation algorithm of
// Kim & Smith (CGO 2003, §3.3): decomposition of Alpha superblocks into
// dependence nodes, output-usage ("globalness") classification, strand
// formation, linear-scan accumulator assignment with strand termination
// spills, precise-trap bookkeeping (PEI tables and Basic-form copy-to-GPR
// insertion), and fragment-chaining code generation.
//
// The translator deliberately performs no instruction re-scheduling and no
// classical optimization beyond the code straightening inherent in
// superblock formation; the underlying ILDP microarchitecture is dynamic
// superscalar and is relied on for scheduling, which is what keeps
// translation overhead an order of magnitude below VLIW-targeting systems.
package translate

import (
	"errors"
	"fmt"
	"strings"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/ildp"
)

// ChainMode selects the fragment-chaining implementation evaluated in the
// paper's §4.3 (Fig. 4).
type ChainMode uint8

const (
	// NoPred: every register-indirect jump branches to the shared dispatch
	// routine.
	NoPred ChainMode = iota
	// SWPred: translation-time software jump-target prediction — a
	// load-embedded-target-address / compare / branch-to-dispatch sequence
	// guards a direct branch to the predicted target's fragment.
	SWPred
	// SWPredRAS: SWPred plus the dual-address hardware return address
	// stack; returns pop a (V-ISA, I-ISA) pair instead of running the
	// compare-and-branch sequence.
	SWPredRAS
)

var chainNames = [...]string{"no_pred", "sw_pred.no_ras", "sw_pred.ras"}

func (m ChainMode) String() string {
	if int(m) < len(chainNames) {
		return chainNames[m]
	}
	return fmt.Sprintf("chain(%d)", uint8(m))
}

// ParseChainMode returns the chaining mode String spells as name.
func ParseChainMode(name string) (ChainMode, error) {
	for m, n := range chainNames {
		if n == name {
			return ChainMode(m), nil
		}
	}
	return 0, fmt.Errorf("translate: unknown chaining mode %q (want %s)", name, strings.Join(chainNames[:], ", "))
}

// Config controls translation.
type Config struct {
	Form   ildp.Form
	NumAcc int // logical accumulators (4 in the paper; 8 as a variant)
	Chain  ChainMode

	// FuseMemOps keeps load/store displacements inside the memory
	// instruction instead of splitting address computation into a separate
	// ALU instruction — the instruction-count reduction the paper proposes
	// in §4.5 ("not split memory instructions into two"), at the cost of
	// address-adder pressure in the decode/issue path. Stores with two
	// live register inputs still split, as the paper notes.
	FuseMemOps bool
}

// DefaultConfig returns the paper's baseline configuration: modified ISA,
// four accumulators, software prediction with dual-address RAS.
func DefaultConfig() Config {
	return Config{Form: ildp.Modified, NumAcc: ildp.DefaultAccumulators, Chain: SWPredRAS}
}

// FingerprintLen is the size of a Config fingerprint in bytes.
const FingerprintLen = 4

// Fingerprint returns the canonical binary fingerprint of the
// configuration fields that determine translation output: form,
// accumulator count, chain mode, and the memory-fusion flag, one byte
// each. Translation is a pure function of (superblock, Config), so two
// translations agree whenever their superblocks and fingerprints agree —
// the property the content-addressed fragment store keys on. Equal
// configs always produce equal fingerprints, and every field that can
// change the emitted code is included.
func (c Config) Fingerprint() [FingerprintLen]byte {
	var fp [FingerprintLen]byte
	fp[0] = byte(c.Form)
	fp[1] = byte(c.NumAcc)
	fp[2] = byte(c.Chain)
	if c.FuseMemOps {
		fp[3] = 1
	}
	return fp
}

// EndKind records why superblock collection stopped (§3.1 fragment ending
// conditions).
type EndKind uint8

const (
	EndIndirect EndKind = iota // register-indirect jump (JMP/JSR/RET)
	EndBackward                // backward taken conditional branch
	EndCycle                   // already-collected instruction reached
	EndMaxSize                 // predefined maximum number of instructions
	EndTrap                    // trap instruction (CALL_PAL) reached
)

var endNames = [...]string{"indirect", "backward-branch", "cycle", "max-size", "trap"}

func (k EndKind) String() string {
	if int(k) < len(endNames) {
		return endNames[k]
	}
	return fmt.Sprintf("end(%d)", uint8(k))
}

// SBInst is one V-ISA instruction of a collected superblock.
type SBInst struct {
	PC    uint64
	Inst  alpha.Inst
	Taken bool // conditional branches: direction observed during collection
	// PredTarget is the observed target of a register-indirect jump (the
	// translation-time software prediction).
	PredTarget uint64
}

// Superblock is a hot trace collected by the interpreter: a single-entry,
// multiple-exit code sequence in dynamic (already straightened) order.
type Superblock struct {
	StartPC uint64
	Insts   []SBInst
	End     EndKind
	// NextPC is the V-ISA continuation address when the superblock does not
	// end in an indirect jump: the fall-through of the final backward
	// branch, the cycle target, the instruction after the size limit, or
	// the trap instruction itself.
	NextPC uint64
}

// UsageCounts tallies output-usage classes over the producing instructions
// of a translation (static, per superblock); the VM weights them by
// execution for the paper's Fig. 7.
type UsageCounts [8]int64

// Add accumulates other into u.
func (u *UsageCounts) Add(other UsageCounts) {
	for i := range u {
		u[i] += other[i]
	}
}

// Total returns the number of classified values.
func (u *UsageCounts) Total() int64 {
	var t int64
	for i := 1; i < len(u); i++ { // skip UsageNone
		t += u[i]
	}
	return t
}

// Result is the output of translating one superblock. It is the one
// fragment type from translator to cache: an installed tcache.Fragment
// embeds it, and both fragment checkers (iverify, semcheck) read it.
type Result struct {
	VStart uint64
	Form   ildp.Form
	Insts  []ildp.Inst

	// PEI is the table of V-ISA addresses of potentially excepting
	// instructions and conditional branches, in program order, used for
	// precise-trap address recovery (§2.2).
	PEI []uint64

	// PEIRecover parallels PEI: for each entry, the architected registers
	// whose current value resides only in an accumulator at that point
	// (Basic form), which the co-designed trap hardware materialises from
	// the accumulator file on a trap. Empty in the Modified form, where
	// the destination-GPR specifiers keep architected state current.
	PEIRecover [][]RegAcc

	// Strands annotates every instruction of Insts with the strand it was
	// emitted for (parallel slice; -1 for strand-less overhead such as the
	// set-VPC prologue, stores and branches with GPR-only inputs, and
	// dispatch stubs). Verification uses it to prove that accumulator
	// dataflow never crosses strands (§3.3). Nil for straightened code.
	Strands []int

	// ExitLive parallels PEI: for each PEI-table point, the architected
	// registers the fragment has (re)defined before that point. Those are
	// exactly the registers whose current values a precise trap or side
	// exit must be able to recover from I-ISA state (§2.2); registers not
	// listed still hold their fragment-entry values in the register file.
	ExitLive [][]alpha.Reg

	// EndLive is the same set at the fragment's final exit.
	EndLive []alpha.Reg

	// Straightened marks a code-straightening-only translation (Alpha to
	// straightened Alpha for the conventional superscalar): instructions
	// are 1:1, carry two GPR sources, and are 4 bytes each.
	Straightened bool

	// SrcCount is the number of V-ISA instructions consumed, excluding
	// removed NOPs; NOPCount the number of removed NOPs; BranchElims the
	// number of unconditional direct branches removed by straightening.
	SrcCount    int
	NOPCount    int
	BranchElims int

	// CopyCount is the number of copy-to-GPR / copy-from-GPR instructions
	// emitted (Table 2 columns 4-5); SpillCount the subset forced by
	// accumulator exhaustion.
	CopyCount  int
	SpillCount int

	// ChainCount is the number of chaining-overhead instructions.
	ChainCount int

	Usage UsageCounts

	// CodeBytes is the encoded size of the translated fragment under the
	// configured form; SrcBytes the size of the consumed Alpha code
	// (including removed NOPs, which occupied source bytes).
	CodeBytes int
	SrcBytes  int

	// Cost is the modelled translation overhead in Alpha-instruction
	// work units (§4.2).
	Cost int64
}

// RegAcc is one precise-trap recovery pair: architected register Reg's
// current value is held by accumulator Acc.
type RegAcc struct {
	Reg alpha.Reg
	Acc ildp.AccID
}

// Errors.
var (
	ErrEmptySuperblock = errors.New("translate: empty superblock")
	ErrUnsupported     = errors.New("translate: unsupported instruction in superblock")
)

// Translate translates one superblock under the given configuration.
func Translate(sb *Superblock, cfg Config) (*Result, error) {
	if len(sb.Insts) == 0 {
		return nil, ErrEmptySuperblock
	}
	if cfg.NumAcc <= 0 || cfg.NumAcc > ildp.MaxAccumulators {
		return nil, fmt.Errorf("translate: bad accumulator count %d", cfg.NumAcc)
	}
	t := &xlat{sb: sb, cfg: cfg, res: &Result{VStart: sb.StartPC, Form: cfg.Form}}
	if err := t.decompose(); err != nil {
		return nil, err
	}
	t.analyze()
	t.computeExitLive()
	t.formStrands()
	if err := t.emit(); err != nil {
		return nil, err
	}
	t.assignAccumulators()
	t.finish()
	return t.res, nil
}

// xlat carries translation state across passes.
type xlat struct {
	sb  *Superblock
	cfg Config
	res *Result

	nodes []node

	// lastDef maps an architected register to the node index of its most
	// recent definition during decomposition (-1 = live-in).
	lastDef [alpha.NumRegs]int

	out []ildp.Inst

	// strand bookkeeping for emission / accumulator assignment
	nextStrand  int
	strandOf    []int // per emitted instruction
	scratchNext alpha.Reg

	cost costMeter
}
