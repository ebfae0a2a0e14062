package semcheck

import (
	"fmt"
	"strings"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
)

// FromFragment returns an installed (possibly patched — patching
// preserves V-ISA exit targets) fragment's translation, the form Check
// and Reconstruct read.
func FromFragment(f *tcache.Fragment) *translate.Result { return &f.Result }

// CEKind classifies counterexamples.
type CEKind uint8

const (
	CEStructure  CEKind = iota // a side could not be evaluated symbolically
	CEExitCount                // differing number of side exits
	CECond                     // side-exit condition operation or value differs
	CEExitTarget               // side-exit V-ISA target differs
	CERegister                 // architected register term differs at an exit
	CENextPC                   // fragment-end continuation address differs
	CEMemCount                 // memory-effect list lengths differ
	CEStore                    // store op/address/value differs
	CELoad                     // load op/address/ordering differs
	CEPEICount                 // differing number of potentially-excepting points
	CEPEI                      // precise-trap state differs at a PEI
	CEOp                       // an executor op differs from its I-instruction (Alpha: the instruction's side)
)

var ceKindNames = [...]string{
	"structure", "exit-count", "cond", "exit-target", "reg", "next-pc",
	"mem-count", "store", "load", "pei-count", "pei", "op",
}

func (k CEKind) String() string {
	if int(k) < len(ceKindNames) {
		return ceKindNames[k]
	}
	return fmt.Sprintf("CEKind(%d)", uint8(k))
}

// Counterexample is one typed divergence between the superblock's
// semantics and the fragment's: what diverged, where, and both term
// trees rendered for inspection.
type Counterexample struct {
	Kind  CEKind
	Where string    // which obligation: side exit, fragment end, PEI point
	Reg   alpha.Reg // diverging register, for CERegister/CEPEI
	Index int       // list index, for memory/exit-count kinds
	Alpha string    // rendered Alpha-side term (or count)
	Frag  string    // rendered fragment-side term (or count)
}

func (c Counterexample) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%v", c.Kind)
	if c.Kind == CERegister || c.Kind == CEPEI {
		fmt.Fprintf(&sb, " r%d", c.Reg)
	}
	if c.Where != "" {
		fmt.Fprintf(&sb, " @ %s", c.Where)
	}
	sb.WriteString("] ")
	fmt.Fprintf(&sb, "alpha: %s != frag: %s", c.Alpha, c.Frag)
	return sb.String()
}

// Report is the result of proving one fragment against its superblock.
type Report struct {
	VStart          uint64
	SrcInsts        int // superblock instructions (incl. NOPs)
	IInsts          int // fragment instructions
	Exits           int // proved side exits
	Finals          int // proved fragment-end alternatives
	Counterexamples []Counterexample
}

// OK reports whether every obligation was proved.
func (r *Report) OK() bool { return len(r.Counterexamples) == 0 }

func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("semcheck V %#x: proved (%d exits, %d ends)",
			r.VStart, r.Exits, r.Finals)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "semcheck V %#x: %d counterexamples\n", r.VStart, len(r.Counterexamples))
	for _, c := range r.Counterexamples {
		fmt.Fprintf(&sb, "  %s\n", c)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// prover carries the shared builder and accumulates counterexamples.
type prover struct {
	b   *builder
	rep *Report
}

func (p *prover) ce(c Counterexample) { p.rep.Counterexamples = append(p.rep.Counterexamples, c) }

// eq tests term equality under path assumptions: interned terms are
// pointer-equal when syntactically equal; otherwise both sides are
// rewritten under the assumptions (re-folding constants) and compared
// again.
func (p *prover) eq(x, y *Term, as []assumption) bool {
	if x == y {
		return true
	}
	if len(as) == 0 {
		return false
	}
	bind := bindings(as)
	memo := make(map[*Term]*Term)
	return p.b.subst(x, bind, memo) == p.b.subst(y, bind, memo)
}

// Check symbolically runs the superblock and the translation — a
// translator's result or an installed fragment's &f.Result — from a
// common initial state and checks every obligation: per side exit the
// condition, target, and architected register file; per fragment-end
// alternative the register file, full memory-effect lists, and next
// V-PC; and per potentially-excepting instruction the precise trap
// state. It then checks the op list the VM's executor runs for the
// translation against its instructions, op by op (ops.go). It never
// returns nil.
func Check(sb *translate.Superblock, code *translate.Result) *Report {
	rep := &Report{VStart: code.VStart, SrcInsts: len(sb.Insts), IInsts: len(code.Insts)}
	p := &prover{b: newBuilder(), rep: rep}

	av, err := runAlpha(p.b, sb)
	if err != nil {
		p.ce(Counterexample{Kind: CEStructure, Where: "superblock", Alpha: err.Error(), Frag: "-"})
		return rep
	}
	fv, err := runFrag(p.b, code)
	if err != nil {
		p.ce(Counterexample{Kind: CEStructure, Where: "fragment", Alpha: "-", Frag: err.Error()})
		return rep
	}

	p.compareExits(av, fv)
	p.comparePEIs(av, fv)
	p.compareMemory(av, fv)
	p.compareFinals(av, fv)
	rep.Counterexamples = append(rep.Counterexamples, checkOps(p.b, code)...)

	rep.Exits = len(av.exits)
	rep.Finals = len(fv.finals)
	return rep
}

func (p *prover) compareExits(av, fv *sides) {
	if len(av.exits) != len(fv.exits) {
		p.ce(Counterexample{Kind: CEExitCount, Where: "side exits",
			Alpha: fmt.Sprint(len(av.exits)), Frag: fmt.Sprint(len(fv.exits))})
		return
	}
	for i := range av.exits {
		a, f := &av.exits[i], &fv.exits[i]
		where := a.Where
		if a.CondOp != f.CondOp || !p.eq(a.Cond, f.Cond, f.Assume) {
			p.ce(Counterexample{Kind: CECond, Where: where,
				Alpha: fmt.Sprintf("%v %s", a.CondOp, a.Cond),
				Frag:  fmt.Sprintf("%v %s", f.CondOp, f.Cond)})
		}
		if !p.eq(a.Target, f.Target, f.Assume) {
			p.ce(Counterexample{Kind: CEExitTarget, Where: where,
				Alpha: a.Target.String(), Frag: f.Target.String()})
		}
		p.compareRegs(CERegister, where, a.Regs, f.Regs, f.Assume)
		if a.NLoads != f.NLoads || a.NStores != f.NStores {
			p.ce(Counterexample{Kind: CEMemCount, Where: where,
				Alpha: fmt.Sprintf("%d loads/%d stores", a.NLoads, a.NStores),
				Frag:  fmt.Sprintf("%d loads/%d stores", f.NLoads, f.NStores)})
		}
	}
}

func (p *prover) compareRegs(kind CEKind, where string, a, f [alpha.NumRegs]*Term, as []assumption) {
	for r := alpha.Reg(0); r < alpha.NumRegs; r++ {
		if r == alpha.RegZero {
			continue
		}
		if !p.eq(a[r], f[r], as) {
			p.ce(Counterexample{Kind: kind, Where: where, Reg: r,
				Alpha: a[r].String(), Frag: f[r].String()})
		}
	}
}

func (p *prover) comparePEIs(av, fv *sides) {
	if len(av.peis) != len(fv.peis) {
		p.ce(Counterexample{Kind: CEPEICount, Where: "PEI table",
			Alpha: fmt.Sprint(len(av.peis)), Frag: fmt.Sprint(len(fv.peis))})
		return
	}
	for i := range av.peis {
		a, f := &av.peis[i], &fv.peis[i]
		where := fmt.Sprintf("PEI #%d @ %#x", i, a.VPC)
		if a.VPC != f.VPC {
			p.ce(Counterexample{Kind: CEPEI, Where: fmt.Sprintf("PEI #%d", i),
				Alpha: fmt.Sprintf("vpc %#x", a.VPC), Frag: fmt.Sprintf("vpc %#x", f.VPC)})
			continue
		}
		p.compareRegs(CEPEI, where, a.Regs, f.Regs, nil)
		if a.NLoads != f.NLoads || a.NStores != f.NStores {
			p.ce(Counterexample{Kind: CEMemCount, Where: where,
				Alpha: fmt.Sprintf("%d loads/%d stores", a.NLoads, a.NStores),
				Frag:  fmt.Sprintf("%d loads/%d stores", f.NLoads, f.NStores)})
		}
	}
}

func (p *prover) compareMemory(av, fv *sides) {
	if len(av.stores) != len(fv.stores) {
		p.ce(Counterexample{Kind: CEMemCount, Where: "stores",
			Alpha: fmt.Sprint(len(av.stores)), Frag: fmt.Sprint(len(fv.stores))})
	} else {
		for i := range av.stores {
			a, f := &av.stores[i], &fv.stores[i]
			where := fmt.Sprintf("store #%d", i)
			if a.Op != f.Op || !p.eq(a.Addr, f.Addr, nil) {
				p.ce(Counterexample{Kind: CEStore, Where: where, Index: i,
					Alpha: fmt.Sprintf("%v %s", a.Op, a.Addr),
					Frag:  fmt.Sprintf("%v %s", f.Op, f.Addr)})
			} else if !p.eq(a.Val, f.Val, nil) {
				p.ce(Counterexample{Kind: CEStore, Where: where, Index: i,
					Alpha: a.Val.String(), Frag: f.Val.String()})
			}
		}
	}
	if len(av.loads) != len(fv.loads) {
		p.ce(Counterexample{Kind: CEMemCount, Where: "loads",
			Alpha: fmt.Sprint(len(av.loads)), Frag: fmt.Sprint(len(fv.loads))})
		return
	}
	for i := range av.loads {
		if !p.eq(av.loads[i], fv.loads[i], nil) {
			p.ce(Counterexample{Kind: CELoad, Where: fmt.Sprintf("load #%d", i), Index: i,
				Alpha: av.loads[i].String(), Frag: fv.loads[i].String()})
		}
	}
}

func (p *prover) compareFinals(av, fv *sides) {
	if len(av.finals) != 1 {
		p.ce(Counterexample{Kind: CEStructure, Where: "fragment end",
			Alpha: fmt.Sprintf("%d final exits", len(av.finals)), Frag: "-"})
		return
	}
	if len(fv.finals) == 0 {
		p.ce(Counterexample{Kind: CEStructure, Where: "fragment end",
			Alpha: "1 final exit", Frag: "no final exit"})
		return
	}
	a := &av.finals[0]
	for i := range fv.finals {
		f := &fv.finals[i]
		where := f.Where
		if !p.eq(a.Target, f.Target, f.Assume) {
			p.ce(Counterexample{Kind: CENextPC, Where: where,
				Alpha: a.Target.String(), Frag: f.Target.String()})
		}
		p.compareRegs(CERegister, where, a.Regs, f.Regs, f.Assume)
		if a.NLoads != f.NLoads || a.NStores != f.NStores {
			p.ce(Counterexample{Kind: CEMemCount, Where: where,
				Alpha: fmt.Sprintf("%d loads/%d stores", a.NLoads, a.NStores),
				Frag:  fmt.Sprintf("%d loads/%d stores", f.NLoads, f.NStores)})
		}
	}
}
