package emu

import (
	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/mem"
)

// LoadMem performs the memory read of an Alpha load operation at addr,
// applying the operation's width, extension, and (for LDx_U) address
// masking. It is shared by the interpreter and the translated-code
// executor so both agree bit-for-bit.
func LoadMem(m *mem.Memory, op alpha.Op, addr uint64) (uint64, error) {
	switch op {
	case alpha.OpLDBU:
		v, err := m.Read8(addr)
		return uint64(v), err
	case alpha.OpLDWU:
		v, err := m.Read16(addr)
		return uint64(v), err
	case alpha.OpLDL, alpha.OpLDLL:
		v, err := m.Read32(addr)
		return sext32(uint64(v)), err
	case alpha.OpLDQ, alpha.OpLDQL:
		if v, ok := m.Hit64(addr); ok {
			return v, nil
		}
		return m.Read64(addr)
	case alpha.OpLDQU:
		return m.Read64(addr &^ 7)
	}
	panic(&SemanticsError{Func: "LoadMem", Op: op})
}

// StoreMem performs the memory write of an Alpha store operation.
// Store-conditionals are treated as plain stores (uniprocessor model);
// the caller materialises the success flag.
func StoreMem(m *mem.Memory, op alpha.Op, addr uint64, v uint64) error {
	switch op {
	case alpha.OpSTB:
		return m.Write8(addr, byte(v))
	case alpha.OpSTW:
		return m.Write16(addr, uint16(v))
	case alpha.OpSTL, alpha.OpSTLC:
		return m.Write32(addr, uint32(v))
	case alpha.OpSTQ, alpha.OpSTQC:
		if m.PutHit64(addr, v) {
			return nil
		}
		return m.Write64(addr, v)
	case alpha.OpSTQU:
		return m.Write64(addr&^7, v)
	}
	panic(&SemanticsError{Func: "StoreMem", Op: op})
}

// MemWidth returns the access width in bytes of a load/store operation.
func MemWidth(op alpha.Op) uint8 {
	switch op {
	case alpha.OpLDBU, alpha.OpSTB:
		return 1
	case alpha.OpLDWU, alpha.OpSTW:
		return 2
	case alpha.OpLDL, alpha.OpLDLL, alpha.OpSTL, alpha.OpSTLC:
		return 4
	}
	return 8
}
