package iverify

import (
	"sort"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

// checkPreciseState proves the fragment can always reconstruct precise
// architected state (§2.2). It re-derives, by an independent walk of the
// instruction stream, which architected registers' current values live
// only in an accumulator at each point, and checks that
//
//   - the PEI table covers exactly the potentially excepting points of
//     the stream, with matching V-ISA addresses and a recovery entry per
//     point (P1);
//   - each recovery entry agrees with the walk in both directions — a
//     recorded pair must name the accumulator that really holds the
//     register's current value, and every accumulator-only value must be
//     recorded, or the trap hardware materialises stale state (P2);
//   - no fragment-defined value is ever unrecoverable (neither in the
//     register file nor in any accumulator) at a PEI point or at the
//     fragment end (P3);
//   - no instruction reads an architected register from the register
//     file while its current value lives elsewhere (P4).
//
// In the Modified form every producer writes its destination GPR, so the
// walk's accumulator-only set stays empty and P2..P4 are vacuous — which
// is itself the §2.3 claim being verified.
func (k *checker) checkPreciseState() {
	c := k.c

	// P1: table shapes.
	peiCount := 0
	for i := range c.Insts {
		if c.Insts[i].IsPEI() {
			peiCount++
		}
	}
	if peiCount != len(c.PEI) {
		k.rep.add(RulePEITable, -1,
			"instruction stream has %d PEI points, table lists %d", peiCount, len(c.PEI))
	}
	if len(c.PEIRecover) != len(c.PEI) {
		k.rep.add(RulePEITable, -1,
			"recovery table has %d entries for %d PEI addresses",
			len(c.PEIRecover), len(c.PEI))
	}
	if c.ExitLive != nil && len(c.ExitLive) != len(c.PEI) {
		k.rep.add(RulePEITable, -1,
			"exit-live table has %d entries for %d PEI addresses",
			len(c.ExitLive), len(c.PEI))
	}
	for n, pairs := range c.PEIRecover {
		for _, p := range pairs {
			if int(p.Acc) >= k.cfg.NumAcc || p.Reg == alpha.RegZero ||
				int(p.Reg) >= alpha.NumRegs {
				k.rep.add(RulePEITable, -1,
					"recovery entry %d names invalid pair R%d <- A%d", n, p.Reg, p.Acc)
			}
		}
	}

	// The walk. inAcc maps an architected register to the accumulator
	// holding its only current copy; lost holds registers whose current
	// value is nowhere (the translation failed to save it before the
	// accumulator was reused).
	inAcc := map[alpha.Reg]ildp.AccID{}
	lost := map[alpha.Reg]bool{}
	reported := map[alpha.Reg]bool{} // one P3 diagnostic per register

	reportLost := func(idx int, live []alpha.Reg, where string) {
		var regs []alpha.Reg
		for r := range lost {
			if !reported[r] && (live == nil || containsReg(live, r)) {
				regs = append(regs, r)
			}
		}
		sort.Slice(regs, func(a, b int) bool { return regs[a] < regs[b] })
		for _, r := range regs {
			reported[r] = true
			k.rep.add(RuleStateLost, idx,
				"R%d's current value is in no accumulator and not in the register file at %s",
				r, where)
		}
	}

	peiIdx := 0
	for i := range c.Insts {
		inst := &c.Insts[i]

		// P4: register-file reads of stale registers, checked against the
		// pre-instruction state.
		var buf [2]alpha.Reg
		for _, r := range inst.GPRSources(buf[:0]) {
			if int(r) >= alpha.NumRegs {
				continue // VM-private scratch registers carry no architected state
			}
			if a, ok := inAcc[r]; ok {
				k.rep.add(RuleStaleRead, i,
					"%v reads R%d from the register file; its current value is in A%d",
					inst.Kind, r, a)
			} else if lost[r] {
				k.rep.add(RuleStaleRead, i,
					"%v reads R%d, whose current value was lost", inst.Kind, r)
			}
		}
		if inst.Kind == ildp.KindCMOV && inst.Dest != alpha.RegZero &&
			int(inst.Dest) < alpha.NumRegs {
			// A not-taken conditional move republishes the destination's
			// old value, so that value must be current in the register file.
			if a, ok := inAcc[inst.Dest]; ok {
				k.rep.add(RuleStaleRead, i,
					"conditional move republishes R%d; its current value is in A%d",
					inst.Dest, a)
			} else if lost[inst.Dest] {
				k.rep.add(RuleStaleRead, i,
					"conditional move republishes R%d, whose current value was lost",
					inst.Dest)
			}
		}

		if inst.IsPEI() {
			// P1: the table entry must record this instruction's V-address.
			if peiIdx < len(c.PEI) && c.PEI[peiIdx] != inst.VPC {
				k.rep.add(RulePEITable, i,
					"PEI entry %d records V %#x, instruction is from V %#x",
					peiIdx, c.PEI[peiIdx], inst.VPC)
			}
			// P2: the recovery entry must equal the walked accumulator-only
			// set. Snapshots describe the state before the instruction's
			// own effects, matching the trap semantics.
			if peiIdx < len(c.PEIRecover) {
				recorded := map[alpha.Reg]bool{}
				for _, p := range c.PEIRecover[peiIdx] {
					recorded[p.Reg] = true
					if a, ok := inAcc[p.Reg]; !ok {
						k.rep.add(RuleStateRecover, i,
							"recovery entry %d restores R%d from A%d, but the register file is current",
							peiIdx, p.Reg, p.Acc)
					} else if a != p.Acc {
						k.rep.add(RuleStateRecover, i,
							"recovery entry %d restores R%d from A%d; the value is in A%d",
							peiIdx, p.Reg, p.Acc, a)
					}
				}
				var missing []alpha.Reg
				for r := range inAcc {
					if !recorded[r] {
						missing = append(missing, r)
					}
				}
				sort.Slice(missing, func(a, b int) bool { return missing[a] < missing[b] })
				for _, r := range missing {
					k.rep.add(RuleStateRecover, i,
						"R%d is held only by A%d but missing from recovery entry %d",
						r, inAcc[r], peiIdx)
				}
			}
			// P3 at the PEI point.
			var live []alpha.Reg
			if c.ExitLive != nil && peiIdx < len(c.ExitLive) {
				live = c.ExitLive[peiIdx]
			}
			reportLost(i, live, "a PEI point")
			peiIdx++
		}

		applyStateEffects(inst, inAcc, lost)
	}

	// P3 at the fragment's final exit.
	reportLost(len(c.Insts)-1, c.EndLive, "the fragment end")
}

// applyStateEffects applies one instruction's effects to the
// accumulator-only architected-state mapping, mirroring the trap
// hardware's view: an accumulator write evicts whatever register the
// accumulator was holding (losing the value unless re-established), a
// Basic-form producer with no destination GPR parks its architected
// result in the accumulator, and any direct GPR write makes that
// register current in the register file.
func applyStateEffects(inst *ildp.Inst, inAcc map[alpha.Reg]ildp.AccID, lost map[alpha.Reg]bool) {
	if inst.WritesAcc && inst.Acc != ildp.NoAcc {
		for r, a := range inAcc {
			if a == inst.Acc {
				delete(inAcc, r)
				lost[r] = true
			}
		}
		if inst.ArchDest != alpha.RegZero && int(inst.ArchDest) < alpha.NumRegs &&
			inst.Dest == alpha.RegZero {
			inAcc[inst.ArchDest] = inst.Acc
			delete(lost, inst.ArchDest)
		}
	}
	if inst.Dest != alpha.RegZero && int(inst.Dest) < alpha.NumRegs {
		delete(inAcc, inst.Dest)
		delete(lost, inst.Dest)
	}
}

// recoverTable rebuilds the PEI recovery table for an instruction stream
// by the same walk the translator uses (exported to the mutation engine,
// which needs a consistent table after structural edits).
func recoverTable(insts []ildp.Inst) [][]translate.RegAcc {
	inAcc := map[alpha.Reg]ildp.AccID{}
	lost := map[alpha.Reg]bool{}
	var table [][]translate.RegAcc
	for i := range insts {
		inst := &insts[i]
		if inst.IsPEI() {
			var pairs []translate.RegAcc
			var regs []alpha.Reg
			for r := range inAcc {
				regs = append(regs, r)
			}
			sort.Slice(regs, func(a, b int) bool { return regs[a] < regs[b] })
			for _, r := range regs {
				pairs = append(pairs, translate.RegAcc{Reg: r, Acc: inAcc[r]})
			}
			table = append(table, pairs)
		}
		applyStateEffects(inst, inAcc, lost)
	}
	return table
}

func containsReg(regs []alpha.Reg, r alpha.Reg) bool {
	for _, x := range regs {
		if x == r {
			return true
		}
	}
	return false
}
