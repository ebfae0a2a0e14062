// Package semcheck is a symbolic equivalence prover for translated
// fragments. It executes an Alpha superblock and its I-ISA translation
// over a shared term language — symbolic initial registers, memory as an
// ordered list of symbolic reads and writes, and bitvector operations
// with constant folding and normalization — and proves that at every
// exit both sides agree on the architected register file, the memory
// effect sequence, and the next V-ISA PC. Any disagreement is reported
// as a typed counterexample carrying both term trees.
//
// The proof is relative to the translator's execution model, which the
// repo's interpreter shares except for two documented assumptions (see
// DESIGN.md §12): LDx_L behaves as a plain load and STx_C always
// succeeds (uniprocessor lock model), and traps/PAL calls are assumed
// precise rather than proved (the PEI obligations check the recovery
// state the trap machinery would materialise).
package semcheck

import (
	"fmt"
	"strings"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/ildp"
)

// TermKind discriminates symbolic term nodes.
type TermKind uint8

const (
	TConst   TermKind = iota // literal 64-bit value (K)
	TReg                     // initial value of architected register K
	TScratch                 // initial value of VM scratch register K (32..63)
	TAcc                     // initial value of accumulator K
	TOp                      // EvalOp(Op, Args[0], Args[1])
	TLoad                    // memory read: Op width/extension, Args[0] address, K store epoch
	TITE                     // EvalCond(Op, Args[0]) ? Args[1] : Args[2]
	TSlot                    // initial value of executor register-file slot K (per-op check)
)

// Term is one interned node of the shared term language. Terms are
// hash-consed by the builder, so two terms are semantically identical
// under the normalization rules iff they are pointer-equal.
type Term struct {
	Kind TermKind
	Op   alpha.Op
	K    uint64
	Args [3]*Term

	id uint32 // intern order; the canonical commutative sort key
}

// termKey identifies a term up to interning: its kind and op, K, and
// its arguments by id plus one (zero for none). It holds no pointer and
// no padding, so the map hashes it as plain memory.
type termKey struct {
	kindOp uint32 // Kind<<16 | Op
	a0     uint32
	k      uint64
	a1, a2 uint32
}

func argKey(t *Term) uint32 {
	if t == nil {
		return 0
	}
	return t.id + 1
}

// builder interns terms and applies normalization at construction time.
// Both frontends of one proof share a builder, so equal computations
// reduce to pointer-equal terms.
type builder struct {
	interned map[termKey]*Term
	zero     *Term
	init     *fragInit
}

// fragInit is the fragment side's initial state: every I-ISA register's
// and accumulator's initial term. Both walks and the per-op check start
// from it, so a builder interns it once.
type fragInit struct {
	regs [numIReg]*Term
	acc  [ildp.MaxAccumulators]*Term
}

// initial returns the builder's fragInit, building it on first use.
func (b *builder) initial() *fragInit {
	if b.init == nil {
		s := &fragInit{}
		for r := alpha.Reg(0); r < alpha.NumRegs; r++ {
			s.regs[r] = b.initReg(r)
		}
		for r := alpha.Reg(alpha.NumRegs); r < numIReg; r++ {
			s.regs[r] = b.initScratch(r)
		}
		for i := range s.acc {
			s.acc[i] = b.initAcc(i)
		}
		b.init = s
	}
	return b.init
}

func newBuilder() *builder {
	b := &builder{interned: make(map[termKey]*Term, 256)}
	b.zero = b.konst(0)
	return b
}

func (b *builder) intern(kind TermKind, op alpha.Op, k uint64, a0, a1, a2 *Term) *Term {
	key := termKey{kindOp: uint32(kind)<<16 | uint32(op), a0: argKey(a0), k: k, a1: argKey(a1), a2: argKey(a2)}
	if t, ok := b.interned[key]; ok {
		return t
	}
	t := &Term{Kind: kind, Op: op, K: k, Args: [3]*Term{a0, a1, a2}, id: uint32(len(b.interned))}
	b.interned[key] = t
	return t
}

func (b *builder) konst(v uint64) *Term {
	return b.intern(TConst, 0, v, nil, nil, nil)
}

// initReg is the symbolic initial value of architected register r; the
// hardwired zero register is the constant 0.
func (b *builder) initReg(r alpha.Reg) *Term {
	if r == alpha.RegZero {
		return b.zero
	}
	return b.intern(TReg, 0, uint64(r), nil, nil, nil)
}

// initScratch is the symbolic initial value of VM scratch register r
// (I-ISA register number, 32..63). Scratch state persists across
// fragment entries, so its initial value is unconstrained.
func (b *builder) initScratch(r alpha.Reg) *Term {
	return b.intern(TScratch, 0, uint64(r), nil, nil, nil)
}

// initAcc is the symbolic initial value of accumulator i (stale state
// from whatever ran before this fragment).
func (b *builder) initAcc(i int) *Term {
	return b.intern(TAcc, 0, uint64(i), nil, nil, nil)
}

// load builds the symbolic result of a memory read at addr under the
// given store epoch (number of stores already performed). Two loads
// with the same op, address term, and epoch read the same value.
func (b *builder) load(op alpha.Op, addr *Term, epoch int) *Term {
	return b.intern(TLoad, op, uint64(epoch), addr, nil, nil)
}

// commutative reports ops for which operand order is canonicalized.
func commutative(op alpha.Op) bool {
	switch op {
	case alpha.OpADDQ, alpha.OpADDL, alpha.OpMULL, alpha.OpMULQ,
		alpha.OpUMULH, alpha.OpAND, alpha.OpBIS, alpha.OpXOR,
		alpha.OpEQV, alpha.OpCMPEQ:
		return true
	}
	return false
}

// op2 builds EvalOp(op, x, y) with normalization: lda canonicalizes to
// addq, constant operands fold through emu.EvalOp (so folding agrees
// with concrete execution by construction), identity operands vanish,
// and commutative operands are ordered canonically.
func (b *builder) op2(op alpha.Op, x, y *Term) *Term {
	if op == alpha.OpLDA {
		op = alpha.OpADDQ
	}
	if x.Kind == TConst && y.Kind == TConst && emu.IsALUOp(op) {
		return b.konst(emu.EvalOp(op, x.K, y.K))
	}
	// Identities valid on full 64-bit values only (the L-suffixed ops
	// re-sign-extend and must not be elided).
	if y.Kind == TConst && y.K == 0 {
		switch op {
		case alpha.OpADDQ, alpha.OpSUBQ, alpha.OpBIS, alpha.OpXOR,
			alpha.OpBIC, alpha.OpSLL, alpha.OpSRL, alpha.OpSRA:
			return x
		}
	}
	if x.Kind == TConst && x.K == 0 {
		switch op {
		case alpha.OpADDQ, alpha.OpBIS, alpha.OpXOR:
			return y
		}
	}
	if commutative(op) && y.id < x.id {
		x, y = y, x
	}
	return b.intern(TOp, op, 0, x, y, nil)
}

// ite builds the conditional select EvalCond(op, cond) ? then : els
// (the CMOV semantics). A constant condition folds; identical branches
// collapse.
func (b *builder) ite(op alpha.Op, cond, then, els *Term) *Term {
	if cond.Kind == TConst {
		if emu.EvalCond(op, cond.K) {
			return then
		}
		return els
	}
	if then == els {
		return then
	}
	return b.intern(TITE, op, 0, cond, then, els)
}

// subst rewrites t replacing each key term with its binding, re-folding
// through the normalizing constructors (so a substitution that makes
// operands constant folds all the way down). memo caches rewrites.
func (b *builder) subst(t *Term, bind map[*Term]*Term, memo map[*Term]*Term) *Term {
	if len(bind) == 0 {
		return t
	}
	if r, ok := bind[t]; ok {
		return r
	}
	if r, ok := memo[t]; ok {
		return r
	}
	var r *Term
	switch t.Kind {
	case TOp:
		r = b.op2(t.Op, b.subst(t.Args[0], bind, memo), b.subst(t.Args[1], bind, memo))
	case TITE:
		r = b.ite(t.Op, b.subst(t.Args[0], bind, memo),
			b.subst(t.Args[1], bind, memo), b.subst(t.Args[2], bind, memo))
	case TLoad:
		r = b.load(t.Op, b.subst(t.Args[0], bind, memo), int(t.K))
	default:
		r = t
	}
	memo[t] = r
	return r
}

// String renders the term as a compact s-expression for counterexample
// reports: (addq r16 #0x10), ldq[2]((addq r30 #0x8)), r5, s32, a3,
// (cmovne c ? t : e).
func (t *Term) String() string {
	var sb strings.Builder
	t.render(&sb, 0)
	return sb.String()
}

const maxRenderDepth = 12

func (t *Term) render(sb *strings.Builder, depth int) {
	if depth > maxRenderDepth {
		sb.WriteString("...")
		return
	}
	switch t.Kind {
	case TConst:
		fmt.Fprintf(sb, "#%#x", t.K)
	case TReg:
		fmt.Fprintf(sb, "r%d", t.K)
	case TScratch:
		fmt.Fprintf(sb, "s%d", t.K)
	case TAcc:
		fmt.Fprintf(sb, "a%d", t.K)
	case TSlot:
		fmt.Fprintf(sb, "slot%d", t.K)
	case TOp:
		fmt.Fprintf(sb, "(%v ", t.Op)
		t.Args[0].render(sb, depth+1)
		sb.WriteByte(' ')
		t.Args[1].render(sb, depth+1)
		sb.WriteByte(')')
	case TLoad:
		fmt.Fprintf(sb, "%v[%d](", t.Op, t.K)
		t.Args[0].render(sb, depth+1)
		sb.WriteByte(')')
	case TITE:
		fmt.Fprintf(sb, "(%v ", t.Op)
		t.Args[0].render(sb, depth+1)
		sb.WriteString(" ? ")
		t.Args[1].render(sb, depth+1)
		sb.WriteString(" : ")
		t.Args[2].render(sb, depth+1)
		sb.WriteByte(')')
	}
}

// assumption is one path constraint a fragment exit is proved under:
// the term is known to equal the bound value on that path (e.g. the
// software-prediction compare fell through, so xor(target, eta) == 0
// and therefore target == eta).
type assumption struct {
	T  *Term
	To *Term
}

// bindings converts path assumptions to a substitution map.
func bindings(as []assumption) map[*Term]*Term {
	if len(as) == 0 {
		return nil
	}
	m := make(map[*Term]*Term, len(as))
	for _, a := range as {
		m[a.T] = a.To
	}
	return m
}

// notTakenAssumptions derives the substitutions implied by falling
// through a conditional branch: for beq/bne the condition value is
// pinned, and when it is xor(x, #c) the operand is pinned too.
func notTakenAssumptions(b *builder, op alpha.Op, cond *Term) []assumption {
	var as []assumption
	pin := func(t, to *Term) {
		as = append(as, assumption{T: t, To: to})
		if t.Kind == TOp && t.Op == alpha.OpXOR {
			x, y := t.Args[0], t.Args[1]
			if y.Kind == TConst && to.Kind == TConst {
				as = append(as, assumption{T: x, To: b.konst(to.K ^ y.K)})
			} else if x.Kind == TConst && to.Kind == TConst {
				as = append(as, assumption{T: y, To: b.konst(to.K ^ x.K)})
			}
		}
	}
	switch op {
	case alpha.OpBNE: // fell through: cond == 0
		pin(cond, b.zero)
	}
	return as
}
