package iverify

import (
	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

// Mutation is one rule-targeted fragment corruption, used to prove the
// verifier's rules actually fire: Apply corrupts the fragment so that
// Verify reports the target rule — and only that rule. Apply is
// self-verifying: it tries candidate sites and keeps the first whose
// corrupted fragment yields exactly {Rule}; it returns false when the
// fragment offers no viable site (e.g. a Modified-form fragment for a
// Basic-form-only rule), leaving the fragment unchanged. A committed
// corruption replaces *c wholesale, so mutate a copy of an installed
// fragment's Result, never &f.Result itself.
type Mutation struct {
	Name  string
	Rule  Rule
	Apply func(c *translate.Result, cfg Config) bool
}

// scratch registers used as corruption targets; like the translator's
// spill scratches they are VM-private, so they collide with nothing
// architected.
const (
	mutGPR   = ildp.ScratchBase + 9
	mutGPR2  = ildp.ScratchBase + 11
	mutGPR3  = ildp.ScratchBase + 12
	mutDest  = ildp.ScratchBase + 10
	mutFrag  = int32(7)
	mutPairR = alpha.Reg(5)
)

// clone deep-copies the fragment so rejected candidate corruptions leave
// the original untouched.
func clone(c *translate.Result) *translate.Result {
	d := *c
	d.Insts = append([]ildp.Inst(nil), c.Insts...)
	if c.Strands != nil {
		d.Strands = append([]int(nil), c.Strands...)
	}
	d.PEI = append([]uint64(nil), c.PEI...)
	d.PEIRecover = make([][]translate.RegAcc, len(c.PEIRecover))
	for i := range c.PEIRecover {
		d.PEIRecover[i] = append([]translate.RegAcc(nil), c.PEIRecover[i]...)
	}
	if c.ExitLive != nil {
		d.ExitLive = make([][]alpha.Reg, len(c.ExitLive))
		for i := range c.ExitLive {
			d.ExitLive[i] = append([]alpha.Reg(nil), c.ExitLive[i]...)
		}
	}
	if c.EndLive != nil {
		d.EndLive = append([]alpha.Reg(nil), c.EndLive...)
	}
	return &d
}

// fixSize recomputes the recorded fragment size after a structural edit,
// so only the intended rule sees the corruption.
func fixSize(c *translate.Result, cfg Config) {
	c.CodeBytes = 0
	for i := range c.Insts {
		c.CodeBytes += c.Insts[i].EncodedSize(cfg.Form)
	}
}

// firesExactly reports whether the fragment violates the target rule and
// no other.
func firesExactly(c *translate.Result, cfg Config, rule Rule) bool {
	rules := Verify(c, cfg).Rules()
	return len(rules) == 1 && rules[0] == rule
}

// search tries sites 0..n-1: mutate edits the clone for a site (returning
// false to skip it) and the first edit that fires exactly the target rule
// is committed to c.
func search(c *translate.Result, cfg Config, rule Rule, n int, mutate func(d *translate.Result, site int) bool) bool {
	for site := 0; site < n; site++ {
		d := clone(c)
		if !mutate(d, site) {
			continue
		}
		if firesExactly(d, cfg, rule) {
			*c = *d
			return true
		}
	}
	return false
}

// pureReader reports whether the instruction reads an in-range
// accumulator without writing one — corrupting its Acc field perturbs no
// downstream dataflow, so the corruption is observable in isolation.
func pureReader(inst *ildp.Inst, cfg Config) bool {
	return !inst.WritesAcc && inst.Acc != ildp.NoAcc && int(inst.Acc) < cfg.NumAcc &&
		(inst.NumAccSources() > 0 || inst.ImplicitAccRead())
}

// accOwners returns, per instruction index, the accumulator-ownership
// state just before that instruction (a row per instruction, a slot per
// accumulator; ownerNone when undefined).
func accOwners(c *translate.Result, cfg Config) [][]int {
	owners := make([][]int, len(c.Insts))
	cur := make([]int, cfg.NumAcc)
	for i := range cur {
		cur[i] = ownerNone
	}
	for i := range c.Insts {
		owners[i] = append([]int(nil), cur...)
		inst := &c.Insts[i]
		if inst.WritesAcc && inst.Acc != ildp.NoAcc && int(inst.Acc) < cfg.NumAcc {
			if s := c.Strands[i]; s >= 0 {
				cur[inst.Acc] = s
			} else {
				cur[inst.Acc] = ownerForeign
			}
		}
	}
	return owners
}

// inAccStates returns, per instruction index, the accumulator-only
// architected-register set just before that instruction.
func inAccStates(c *translate.Result) []map[alpha.Reg]ildp.AccID {
	states := make([]map[alpha.Reg]ildp.AccID, len(c.Insts))
	inAcc := map[alpha.Reg]ildp.AccID{}
	lost := map[alpha.Reg]bool{}
	for i := range c.Insts {
		m := make(map[alpha.Reg]ildp.AccID, len(inAcc))
		for r, a := range inAcc {
			m[r] = a
		}
		states[i] = m
		applyStateEffects(&c.Insts[i], inAcc, lost)
	}
	return states
}

// spliceInst removes instruction i, keeping the strand annotations
// aligned.
func spliceInst(c *translate.Result, i int) {
	c.Insts = append(c.Insts[:i], c.Insts[i+1:]...)
	if c.Strands != nil {
		c.Strands = append(c.Strands[:i], c.Strands[i+1:]...)
	}
}

// insertInst inserts inst at position i with a strand-less annotation.
func insertInst(c *translate.Result, i int, inst ildp.Inst) {
	c.Insts = append(c.Insts, ildp.Inst{})
	copy(c.Insts[i+1:], c.Insts[i:])
	c.Insts[i] = inst
	if c.Strands != nil {
		c.Strands = append(c.Strands, 0)
		copy(c.Strands[i+1:], c.Strands[i:])
		c.Strands[i] = -1
	}
}

// Mutations returns one targeted corruption per verifier rule, in rule
// order.
func Mutations() []Mutation {
	return []Mutation{
		{Name: "second-gpr-source", Rule: RuleGPRSources, Apply: mutGPRSources},
		{Name: "second-acc-source", Rule: RuleAccSources, Apply: mutAccSources},
		{Name: "acc-beyond-file", Rule: RuleAccRange, Apply: mutAccRange},
		{Name: "unbound-acc", Rule: RuleAccBinding, Apply: mutAccBinding},
		{Name: "wrong-code-bytes", Rule: RuleSizeClass, Apply: mutSizeClass},
		{Name: "wrong-dest-specifier", Rule: RuleFormDest, Apply: mutFormDest},
		{Name: "read-undefined-acc", Rule: RuleAccUndefined, Apply: mutAccUndefined},
		{Name: "cross-strand-read", Rule: RuleStrandBleed, Apply: mutStrandBleed},
		{Name: "reload-wrong-home", Rule: RuleSpillRestore, Apply: mutSpillRestore},
		{Name: "truncated-pei-table", Rule: RulePEITable, Apply: mutPEITable},
		{Name: "corrupt-recovery-entry", Rule: RuleStateRecover, Apply: mutStateRecover},
		{Name: "drop-state-copy", Rule: RuleStateLost, Apply: mutStateLost},
		{Name: "read-stale-register", Rule: RuleStaleRead, Apply: mutStaleRead},
		{Name: "wrong-entry-vpc", Rule: RulePrologue, Apply: mutPrologue},
		{Name: "trailing-branch", Rule: RuleTerminator, Apply: mutTerminator},
		{Name: "ras-stub-mismatch", Rule: RuleChainMode, Apply: mutChainMode},
		{Name: "drop-jtarget-latch", Rule: RuleJTarget, Apply: mutJTarget},
		{Name: "linked-translator-exit", Rule: RuleFragLink, Apply: mutFragLink},
	}
}

// E1: give an accumulator-reading instruction a second GPR source by
// rewriting its accumulator operand into a register read.
func mutGPRSources(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RuleGPRSources, len(c.Insts), func(d *translate.Result, i int) bool {
		inst := &d.Insts[i]
		if inst.NumGPRSources() != 1 || inst.NumAccSources() == 0 {
			return false
		}
		if inst.SrcA.Kind == ildp.SrcAcc {
			inst.SrcA = ildp.GPRSrc(mutGPR)
		} else {
			inst.SrcB = ildp.GPRSrc(mutGPR)
		}
		fixSize(d, cfg)
		return true
	})
}

// E2: give a single-accumulator instruction a second accumulator source.
// Both specifiers name the instruction's own accumulator, so the
// dataflow rules stay satisfied and only the encoding rule can object.
func mutAccSources(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RuleAccSources, len(c.Insts), func(d *translate.Result, i int) bool {
		inst := &d.Insts[i]
		if inst.Kind == ildp.KindCMOV || inst.NumAccSources() != 1 {
			return false
		}
		if inst.SrcA.Kind == ildp.SrcAcc {
			inst.SrcB = ildp.AccSrc()
		} else {
			inst.SrcA = ildp.AccSrc()
		}
		fixSize(d, cfg)
		return true
	})
}

// E3: point a pure accumulator reader past the configured file.
func mutAccRange(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RuleAccRange, len(c.Insts), func(d *translate.Result, i int) bool {
		if !pureReader(&d.Insts[i], cfg) {
			return false
		}
		d.Insts[i].Acc = ildp.AccID(cfg.NumAcc)
		return true
	})
}

// E4: strip the accumulator binding from a pure accumulator reader.
func mutAccBinding(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RuleAccBinding, len(c.Insts), func(d *translate.Result, i int) bool {
		if !pureReader(&d.Insts[i], cfg) {
			return false
		}
		d.Insts[i].Acc = ildp.NoAcc
		return true
	})
}

// E5: record a fragment size the per-instruction size classes cannot sum
// to.
func mutSizeClass(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RuleSizeClass, 1, func(d *translate.Result, _ int) bool {
		fixSize(d, cfg)
		d.CodeBytes += 2
		return true
	})
}

// E6: break the destination-specifier discipline — a Basic-form producer
// that smuggles in a destination field, or a Modified-form producer whose
// specifier disagrees with the architected result register.
func mutFormDest(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RuleFormDest, len(c.Insts), func(d *translate.Result, i int) bool {
		inst := &d.Insts[i]
		if !inst.ProducesResult() {
			return false
		}
		if cfg.Form == ildp.Basic {
			if inst.Kind == ildp.KindSaveVRA || inst.Kind == ildp.KindCMOV ||
				inst.Dest != alpha.RegZero {
				return false
			}
			inst.Dest = mutDest
		} else {
			if inst.ArchDest == alpha.RegZero || int(inst.ArchDest) >= alpha.NumRegs ||
				inst.Dest != inst.ArchDest {
				return false
			}
			inst.Dest = (inst.ArchDest + 1) % alpha.RegZero
		}
		fixSize(d, cfg)
		return true
	})
}

// D1: redirect a pure accumulator reader to an accumulator nothing has
// defined yet.
func mutAccUndefined(c *translate.Result, cfg Config) bool {
	if c.Strands == nil {
		return false
	}
	owners := accOwners(c, cfg)
	return search(c, cfg, RuleAccUndefined, len(c.Insts)*cfg.NumAcc, func(d *translate.Result, site int) bool {
		i, a := site/cfg.NumAcc, site%cfg.NumAcc
		if !pureReader(&d.Insts[i], cfg) || owners[i][a] != ownerNone {
			return false
		}
		d.Insts[i].Acc = ildp.AccID(a)
		return true
	})
}

// D2: redirect a pure accumulator reader to an accumulator currently
// owned by a different strand.
func mutStrandBleed(c *translate.Result, cfg Config) bool {
	if c.Strands == nil {
		return false
	}
	owners := accOwners(c, cfg)
	return search(c, cfg, RuleStrandBleed, len(c.Insts)*cfg.NumAcc, func(d *translate.Result, site int) bool {
		i, a := site/cfg.NumAcc, site%cfg.NumAcc
		if !pureReader(&d.Insts[i], cfg) {
			return false
		}
		if own := owners[i][a]; own == ownerNone || own == d.Strands[i] {
			return false
		}
		d.Insts[i].Acc = ildp.AccID(a)
		return true
	})
}

// D3: make a strand reload read back a register other than the one its
// value was spilled to.
func mutSpillRestore(c *translate.Result, cfg Config) bool {
	if c.Strands == nil {
		return false
	}
	return search(c, cfg, RuleSpillRestore, len(c.Insts), func(d *translate.Result, i int) bool {
		inst := &d.Insts[i]
		if inst.Kind != ildp.KindCopyFromGPR || d.Strands[i] < 0 ||
			inst.SrcA.Kind != ildp.SrcGPR {
			return false
		}
		// Only a resumption of an already-seen strand is a reload.
		reload := false
		for j := 0; j < i; j++ {
			if d.Strands[j] == d.Strands[i] {
				reload = true
				break
			}
		}
		if !reload {
			return false
		}
		wrong := alpha.Reg(mutGPR2)
		if inst.SrcA.Reg == wrong {
			wrong = mutGPR3
		}
		inst.SrcA.Reg = wrong
		return true
	})
}

// P1: drop the last PEI point from every table, as a translator that
// forgot to log a potentially excepting instruction would.
func mutPEITable(c *translate.Result, cfg Config) bool {
	if len(c.PEI) == 0 {
		return false
	}
	return search(c, cfg, RulePEITable, 1, func(d *translate.Result, _ int) bool {
		d.PEI = d.PEI[:len(d.PEI)-1]
		if len(d.PEIRecover) > 0 {
			d.PEIRecover = d.PEIRecover[:len(d.PEIRecover)-1]
		}
		if len(d.ExitLive) > 0 {
			d.ExitLive = d.ExitLive[:len(d.ExitLive)-1]
		}
		return true
	})
}

// P2: corrupt one recovery entry — drop a pair the trap hardware needs,
// or (when every entry is empty, as in the Modified form) invent a pair
// that would restore a stale accumulator value over live state.
func mutStateRecover(c *translate.Result, cfg Config) bool {
	n := len(c.PEIRecover)
	return search(c, cfg, RuleStateRecover, 2*n, func(d *translate.Result, site int) bool {
		k, inject := site%n, site >= n
		if inject {
			d.PEIRecover[k] = append(d.PEIRecover[k],
				translate.RegAcc{Reg: mutPairR, Acc: 0})
			return true
		}
		if len(d.PEIRecover[k]) == 0 {
			return false
		}
		d.PEIRecover[k] = d.PEIRecover[k][:len(d.PEIRecover[k])-1]
		return true
	})
}

// P3: delete a Basic-form state-maintenance copy and rebuild the recovery
// table to match, leaving a window where an architected value is in no
// accumulator and not in the register file — precisely the corruption
// the recovery-table check alone cannot see.
func mutStateLost(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RuleStateLost, len(c.Insts), func(d *translate.Result, i int) bool {
		inst := &d.Insts[i]
		if inst.Kind != ildp.KindCopyToGPR || inst.Class != ildp.ClassCopy ||
			inst.Dest == alpha.RegZero || int(inst.Dest) >= alpha.NumRegs {
			return false
		}
		spliceInst(d, i)
		d.PEIRecover = recoverTable(d.Insts)
		fixSize(d, cfg)
		return true
	})
}

// P4: redirect a register source at an architected register whose current
// value lives in an accumulator, so the instruction would read the stale
// register-file copy.
func mutStaleRead(c *translate.Result, cfg Config) bool {
	states := inAccStates(c)
	return search(c, cfg, RuleStaleRead, len(c.Insts)*alpha.NumRegs, func(d *translate.Result, site int) bool {
		i, r := site/alpha.NumRegs, alpha.Reg(site%alpha.NumRegs)
		if _, ok := states[i][r]; !ok {
			return false
		}
		inst := &d.Insts[i]
		if inst.Kind == ildp.KindCopyFromGPR {
			return false // reloads are the D3 rule's territory
		}
		switch {
		case inst.SrcA.Kind == ildp.SrcGPR && inst.SrcA.Reg != alpha.RegZero:
			inst.SrcA.Reg = r
		case inst.SrcB.Kind == ildp.SrcGPR && inst.SrcB.Reg != alpha.RegZero:
			inst.SrcB.Reg = r
		default:
			return false
		}
		return true
	})
}

// C1: make the set-VPC prologue claim the wrong fragment entry address.
func mutPrologue(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RulePrologue, 1, func(d *translate.Result, _ int) bool {
		if len(d.Insts) == 0 || d.Insts[0].Kind != ildp.KindSetVPC {
			return false
		}
		d.Insts[0].VAddr += 4
		return true
	})
}

// C2: append a second unconditional transfer, making the original
// terminator unreachable body code.
func mutTerminator(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RuleTerminator, 1, func(d *translate.Result, _ int) bool {
		insertInst(d, len(d.Insts), ildp.Inst{
			Kind: ildp.KindBranch, Acc: ildp.NoAcc,
			Dest: alpha.RegZero, ArchDest: alpha.RegZero,
			Frag: 0, Class: ildp.ClassChain,
		})
		fixSize(d, cfg)
		return true
	})
}

// C3: desynchronise the exit stubs from the chain mode — remove a
// push-dual-ras under SWPredRAS, or plant one under a mode with no RAS.
func mutChainMode(c *translate.Result, cfg Config) bool {
	if cfg.Chain == translate.SWPredRAS {
		return search(c, cfg, RuleChainMode, len(c.Insts), func(d *translate.Result, i int) bool {
			if d.Insts[i].Kind != ildp.KindPushRAS {
				return false
			}
			spliceInst(d, i)
			fixSize(d, cfg)
			return true
		})
	}
	return search(c, cfg, RuleChainMode, len(c.Insts), func(d *translate.Result, i int) bool {
		if i == 0 {
			return false // never before the prologue
		}
		insertInst(d, i, ildp.Inst{
			Kind: ildp.KindPushRAS, Acc: ildp.NoAcc,
			Dest: alpha.RegZero, ArchDest: alpha.RegZero,
			Frag: ildp.NoFrag, VAddr: 0x123, Class: ildp.ClassChain,
		})
		fixSize(d, cfg)
		return true
	})
}

// C4: retarget the jump-target latch at a scratch register, so dispatch
// transfers run on a stale latch.
func mutJTarget(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RuleJTarget, len(c.Insts), func(d *translate.Result, i int) bool {
		inst := &d.Insts[i]
		if inst.Dest != ildp.RegJTarget {
			return false
		}
		inst.Dest = mutGPR3
		fixSize(d, cfg)
		return true
	})
}

// C5: attach a fragment link to a translator exit, which must leave
// translated code unconditionally.
func mutFragLink(c *translate.Result, cfg Config) bool {
	return search(c, cfg, RuleFragLink, len(c.Insts), func(d *translate.Result, i int) bool {
		switch d.Insts[i].Kind {
		case ildp.KindCallTrans, ildp.KindCallTransCond:
		default:
			return false
		}
		if d.Insts[i].Frag != ildp.NoFrag {
			return false
		}
		d.Insts[i].Frag = mutFrag
		return true
	})
}

// SemanticMutation is a fragment corruption every structural rule
// accepts: the mutated fragment still satisfies all encoding, dataflow,
// precise-state, and chaining invariants, yet computes something other
// than its source superblock — exactly the class of translator bug only
// the symbolic equivalence prover (internal/semcheck) can catch. Apply
// is self-verifying against the structural rules: it commits the first
// candidate site whose corrupted fragment the verifier still fully
// accepts, and returns false when the fragment offers no such site.
type SemanticMutation struct {
	Name  string
	Apply func(c *translate.Result, cfg Config) bool
}

// SemanticMutations returns the structurally-invisible corruptions.
func SemanticMutations() []SemanticMutation {
	return []SemanticMutation{
		{Name: "swap-alu-operands", Apply: mutSwapOperands},
		{Name: "off-by-one-literal", Apply: mutLiteral},
		{Name: "skew-mem-displacement", Apply: mutDisplacement},
		{Name: "wrong-strand-source", Apply: mutStrandSource},
	}
}

// semSearch is search's semantic twin: the committed site must leave the
// fragment fully acceptable to every structural rule.
func semSearch(c *translate.Result, cfg Config, n int, mutate func(d *translate.Result, site int) bool) bool {
	for site := 0; site < n; site++ {
		d := clone(c)
		if !mutate(d, site) {
			continue
		}
		if Verify(d, cfg).OK() {
			*c = *d
			return true
		}
	}
	return false
}

// valueObservable reports whether a value produced at instruction i
// provably reaches a compared observation point: either the architected
// destination register is never written again (so the final register
// state carries it), or the written accumulator is copied to such a
// register before being overwritten. Conservative — it only admits
// sites where a semantic change is guaranteed visible at some exit.
func valueObservable(c *translate.Result, i int) bool {
	inst := &c.Insts[i]
	if archDestLivesOut(c, i+1, inst.Dest) {
		return true
	}
	if !inst.WritesAcc {
		return false
	}
	a := inst.Acc
	for j := i + 1; j < len(c.Insts); j++ {
		nxt := &c.Insts[j]
		if readsAcc(nxt, a) {
			switch nxt.Kind {
			case ildp.KindLoad, ildp.KindStore:
				// The address (and any stored value) term is compared
				// directly at every exit.
				return true
			case ildp.KindCopyToGPR:
				if archDestLivesOut(c, j+1, nxt.Dest) {
					return true
				}
			default:
				// The consumer folds the value into its own result;
				// follow that result instead.
				if valueObservable(c, j) {
					return true
				}
			}
		}
		if overwritesAcc(nxt, a) {
			return false
		}
	}
	return false
}

// readsAcc reports whether the instruction reads accumulator a.
func readsAcc(inst *ildp.Inst, a ildp.AccID) bool {
	if inst.Acc != a {
		return false
	}
	switch inst.Kind {
	case ildp.KindCopyToGPR:
		return true
	case ildp.KindCMOV:
		return inst.SrcA.Kind != ildp.SrcGPR || inst.SrcB.Kind == ildp.SrcAcc
	}
	return inst.SrcA.Kind == ildp.SrcAcc || inst.SrcB.Kind == ildp.SrcAcc
}

// archDestLivesOut reports whether r is an architected register no
// instruction at or after index j writes.
func archDestLivesOut(c *translate.Result, j int, r alpha.Reg) bool {
	if r == alpha.RegZero || int(r) >= alpha.NumRegs {
		return false
	}
	for ; j < len(c.Insts); j++ {
		if writesGPR(&c.Insts[j], r) {
			return false
		}
	}
	return true
}

func writesGPR(inst *ildp.Inst, r alpha.Reg) bool {
	switch inst.Kind {
	case ildp.KindALU, ildp.KindCMOV, ildp.KindLoad,
		ildp.KindCopyToGPR, ildp.KindSaveVRA:
		return inst.Dest == r
	}
	return false
}

func overwritesAcc(inst *ildp.Inst, a ildp.AccID) bool {
	if inst.WritesAcc && inst.Acc == a {
		return true
	}
	switch inst.Kind {
	case ildp.KindCopyFromGPR, ildp.KindLoadETA:
		return inst.Acc == a
	}
	return false
}

// sameSrc reports syntactically identical operand specifiers.
func sameSrc(a, b ildp.Src) bool {
	return a.Kind == b.Kind && a.Reg == b.Reg && a.Imm == b.Imm
}

// S1: swap the operands of a non-commutative core ALU instruction. The
// operand counts, accumulator dataflow, and encoding class are all
// unchanged, but a-b becomes b-a.
func mutSwapOperands(c *translate.Result, cfg Config) bool {
	nonCommutative := map[alpha.Op]bool{
		alpha.OpSUBQ: true, alpha.OpSUBL: true,
		alpha.OpCMPLT: true, alpha.OpCMPLE: true,
		alpha.OpCMPULT: true, alpha.OpCMPULE: true,
		alpha.OpSLL: true, alpha.OpSRL: true, alpha.OpSRA: true,
		alpha.OpBIC: true, alpha.OpORNOT: true,
	}
	return semSearch(c, cfg, len(c.Insts), func(d *translate.Result, i int) bool {
		inst := &d.Insts[i]
		if inst.Kind != ildp.KindALU || inst.Class != ildp.ClassCore ||
			!nonCommutative[inst.Op] || sameSrc(inst.SrcA, inst.SrcB) {
			return false
		}
		// One operand must be an immediate: two register-file or
		// accumulator operands can transiently hold equal values, which
		// would make the swap a semantic no-op.
		if inst.SrcA.Kind != ildp.SrcImm && inst.SrcB.Kind != ildp.SrcImm {
			return false
		}
		if !valueObservable(d, i) {
			return false
		}
		inst.SrcA, inst.SrcB = inst.SrcB, inst.SrcA
		return true
	})
}

// S2: nudge an ALU immediate by one — the classic off-by-one a decoder
// or constant pool could introduce with no structural trace.
func mutLiteral(c *translate.Result, cfg Config) bool {
	return semSearch(c, cfg, len(c.Insts), func(d *translate.Result, i int) bool {
		inst := &d.Insts[i]
		if inst.Kind != ildp.KindALU || inst.Class != ildp.ClassCore ||
			inst.SrcB.Kind != ildp.SrcImm {
			return false
		}
		if !valueObservable(d, i) {
			return false
		}
		inst.SrcB.Imm++
		return true
	})
}

// S3: skew a memory displacement by one quadword. Loads observe the
// wrong address term directly; stores write the right value to the
// wrong place. Always observable: the prover compares every memory
// access's address.
func mutDisplacement(c *translate.Result, cfg Config) bool {
	return semSearch(c, cfg, len(c.Insts), func(d *translate.Result, i int) bool {
		inst := &d.Insts[i]
		if inst.Class != ildp.ClassCore ||
			(inst.Kind != ildp.KindLoad && inst.Kind != ildp.KindStore) {
			return false
		}
		inst.Disp += 8
		return true
	})
}

// S4: repoint an accumulator-loading copy at the wrong architected
// register — the two-GPR-repair or strand-start copy now feeds the
// strand from a different live value. Register liveness and strand
// structure are untouched, so only term equivalence can object.
func mutStrandSource(c *translate.Result, cfg Config) bool {
	return semSearch(c, cfg, len(c.Insts)*int(alpha.NumRegs), func(d *translate.Result, site int) bool {
		i, r := site/int(alpha.NumRegs), alpha.Reg(site%int(alpha.NumRegs))
		inst := &d.Insts[i]
		if inst.Kind != ildp.KindCopyFromGPR || inst.SrcA.Kind != ildp.SrcGPR ||
			int(inst.SrcA.Reg) >= alpha.NumRegs {
			return false
		}
		if r == alpha.RegZero || r == inst.SrcA.Reg {
			return false
		}
		if !valueObservable(d, i) {
			return false
		}
		inst.SrcA.Reg = r
		return true
	})
}
