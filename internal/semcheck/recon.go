package semcheck

import (
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/translate"
)

// reconLimit bounds the decode walk (a superblock is at most a few
// hundred instructions; runaway walks indicate a corrupt fragment).
const reconLimit = 4096

// Reconstruct rebuilds the source superblock of a fragment by decoding
// guest memory from its V-start and replaying the recorded hot path the
// fragment encodes: every instruction the translator kept carries its
// V-PC, side exits carry their V-ISA targets (preserved by patching),
// and the branch sense is recovered by matching each decoded branch's
// condition against the emitted (possibly reversed) exit condition.
// read fetches one instruction word of guest memory.
func Reconstruct(read func(addr uint64) (alpha.Word, error), code *translate.Result) (*translate.Superblock, error) {
	vpcs := sourceVPCs(code)
	if len(vpcs) == 0 {
		return nil, fmt.Errorf("semcheck: fragment at %#x has no source V-PCs", code.VStart)
	}
	exits := coreExits(code)
	predTarget, nextPC, hasNext := chainTargets(code)

	sb := &translate.Superblock{StartPC: code.VStart}
	pc := code.VStart
	k, e := 0, 0
	indirect := false

	for steps := 0; k < len(vpcs); steps++ {
		if steps > reconLimit {
			return nil, fmt.Errorf("semcheck: decode walk from %#x did not converge", code.VStart)
		}
		w, err := read(pc)
		if err != nil {
			return nil, fmt.Errorf("semcheck: reading %#x: %w", pc, err)
		}
		inst := alpha.Decode(w)
		rec := translate.SBInst{PC: pc, Inst: inst}

		if inst.IsNOP() {
			sb.Insts = append(sb.Insts, rec)
			pc += alpha.InstBytes
			continue
		}
		if inst.Op == alpha.OpBR && inst.Ra == alpha.RegZero {
			// Straightened away; follow the branch.
			sb.Insts = append(sb.Insts, rec)
			pc = inst.BranchTarget(pc)
			continue
		}
		if pc != vpcs[k] {
			return nil, fmt.Errorf("semcheck: decoded %v at %#x, expected source V-PC %#x",
				inst.Op, pc, vpcs[k])
		}
		k++

		switch {
		case inst.IsCondBranch():
			if e >= len(exits) {
				return nil, fmt.Errorf("semcheck: branch at %#x has no fragment exit", pc)
			}
			ex := exits[e]
			e++
			target := inst.BranchTarget(pc)
			switch ex.op {
			case inst.Op:
				// Condition kept: the exit is the taken target and the
				// recorded path fell through.
				if ex.vaddr != target {
					return nil, fmt.Errorf("semcheck: exit at %#x targets %#x, branch targets %#x",
						pc, ex.vaddr, target)
				}
				pc += alpha.InstBytes
			default:
				rop, err := reverseCond(inst.Op)
				if err != nil || ex.op != rop {
					return nil, fmt.Errorf("semcheck: exit condition %v at %#x matches neither %v nor its reverse",
						ex.op, pc, inst.Op)
				}
				if ex.vaddr != pc+alpha.InstBytes {
					return nil, fmt.Errorf("semcheck: reversed exit at %#x targets %#x, expected fall-through %#x",
						pc, ex.vaddr, pc+alpha.InstBytes)
				}
				rec.Taken = true
				pc = target
			}
			sb.Insts = append(sb.Insts, rec)

		case inst.IsIndirect():
			rec.PredTarget = predTarget
			sb.Insts = append(sb.Insts, rec)
			indirect = true

		case inst.Op == alpha.OpBR || inst.Op == alpha.OpBSR:
			sb.Insts = append(sb.Insts, rec)
			pc = inst.BranchTarget(pc)

		default:
			sb.Insts = append(sb.Insts, rec)
			pc += alpha.InstBytes
		}
	}

	if e != len(exits) {
		return nil, fmt.Errorf("semcheck: %d fragment exits unmatched by source branches", len(exits)-e)
	}
	if indirect {
		sb.End = translate.EndIndirect
		return sb, nil
	}
	if !hasNext {
		return nil, fmt.Errorf("semcheck: fragment at %#x has no continuation terminator", code.VStart)
	}
	// The walk replays any fragment-ending backward branch as
	// fall-through (Taken=false with the original condition), which is
	// observationally identical to the EndBackward encoding, so EndCycle
	// describes every non-indirect ending.
	sb.End = translate.EndCycle
	sb.NextPC = nextPC
	return sb, nil
}

// sourceVPCs returns the ordered distinct V-PCs of the fragment's
// source instructions.
func sourceVPCs(code *translate.Result) []uint64 {
	var vpcs []uint64
	for i := range code.Insts {
		vpc := code.Insts[i].VPC
		if vpc == 0 {
			continue
		}
		if n := len(vpcs); n > 0 && vpcs[n-1] == vpc {
			continue
		}
		vpcs = append(vpcs, vpc)
	}
	return vpcs
}

type exitSite struct {
	op    alpha.Op
	vaddr uint64
}

// coreExits returns the fragment's core conditional exits in order
// (call-transfer conditionals, or direct links after patching).
func coreExits(code *translate.Result) []exitSite {
	var exits []exitSite
	for i := range code.Insts {
		inst := &code.Insts[i]
		if inst.Class != ildp.ClassCore {
			continue
		}
		if inst.Kind == ildp.KindCallTransCond || inst.Kind == ildp.KindCondBranch {
			exits = append(exits, exitSite{op: inst.Op, vaddr: inst.VAddr})
		}
	}
	return exits
}

// chainTargets extracts the software-prediction target (last load-ETA)
// and the fall-off continuation address (trailing unconditional
// transfer with a V-ISA target).
func chainTargets(code *translate.Result) (predTarget, nextPC uint64, hasNext bool) {
	for i := range code.Insts {
		if code.Insts[i].Kind == ildp.KindLoadETA {
			predTarget = code.Insts[i].VAddr
		}
	}
	if n := len(code.Insts); n > 0 {
		last := &code.Insts[n-1]
		if (last.Kind == ildp.KindCallTrans || last.Kind == ildp.KindBranch) &&
			last.Frag != ildp.FragDispatch {
			return predTarget, last.VAddr, true
		}
	}
	return predTarget, 0, false
}
