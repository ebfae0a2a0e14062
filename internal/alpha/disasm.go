package alpha

import "fmt"

// Disassemble renders the instruction in conventional Alpha assembler
// syntax. pc is the address of the instruction; it is used to resolve
// direct branch targets to absolute addresses.
func Disassemble(i Inst, pc uint64) string {
	switch i.Format {
	case FormatPAL:
		switch i.PALFn {
		case PALHalt:
			return "call_pal halt"
		case PALBpt:
			return "call_pal bpt"
		case PALCallSys:
			return "call_pal callsys"
		}
		return fmt.Sprintf("call_pal %#x", i.PALFn)

	case FormatMemory:
		if i.IsNOP() && (i.Op == OpLDA || i.Op == OpLDQU) {
			return "unop"
		}
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Ra, i.Disp, i.Rb)

	case FormatMemJump:
		return fmt.Sprintf("%s %s, (%s)", i.Op, i.Ra, i.Rb)

	case FormatMemFunc:
		if i.Op == OpRPCC {
			return fmt.Sprintf("rpcc %s", i.Ra)
		}
		return i.Op.String()

	case FormatBranch:
		target := i.BranchTarget(pc)
		if i.Op == OpBR && i.Ra == RegZero {
			return fmt.Sprintf("br %#x", target)
		}
		return fmt.Sprintf("%s %s, %#x", i.Op, i.Ra, target)

	case FormatOperate:
		if i.IsNOP() && i.Op == OpBIS && i.Ra == RegZero {
			return "nop"
		}
		var src string
		if i.UseLit {
			src = fmt.Sprintf("#%d", i.Lit)
		} else {
			src = i.Rb.String()
		}
		// mov pseudo-ops for common idioms.
		if i.Op == OpBIS && i.Ra == RegZero {
			return fmt.Sprintf("mov %s, %s", src, i.Rc)
		}
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Ra, src, i.Rc)
	}
	return fmt.Sprintf(".word %#08x", uint32(i.Raw))
}

// DisassembleWord decodes and disassembles a raw instruction word at pc.
func DisassembleWord(w Word, pc uint64) string {
	return Disassemble(Decode(w), pc)
}
