package emu

import (
	"errors"
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/mem"
)

// Trap is a precise architectural trap raised during interpretation or
// translated-code execution. PC is the V-ISA address of the faulting
// instruction.
type Trap struct {
	PC    uint64
	Cause error
}

func (t *Trap) Error() string { return fmt.Sprintf("trap at pc=%#x: %v", t.PC, t.Cause) }

// Unwrap exposes the underlying cause (e.g. *mem.AccessFault).
func (t *Trap) Unwrap() error { return t.Cause }

// Trap causes that are not memory faults.
var (
	ErrIllegalInstruction = errors.New("illegal instruction")
	ErrUnsupported        = errors.New("unsupported instruction (FP or PAL-reserved)")
	ErrBreakpoint         = errors.New("breakpoint")
	ErrBadSyscall         = errors.New("unknown system call")
)

// ErrInstLimit is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrInstLimit = errors.New("instruction limit reached")

// CPU is the architected state of an Alpha processor plus a little console
// for the PAL putchar surface. The zero value is not usable; call New.
type CPU struct {
	PC  uint64
	Reg [alpha.NumRegs]uint64
	Mem *mem.Memory

	Halted     bool
	ExitStatus uint64

	// InstCount counts architecturally executed (committed) instructions,
	// including NOPs.
	InstCount uint64

	// Console accumulates bytes written via SysPutChar.
	Console []byte

	// lockFlag models LDx_L/STx_C on a uniprocessor.
	lockFlag bool
	lockAddr uint64

	// memo caches decoded instructions. It is indexed by PC
	// (MemoIndex) and keyed by the instruction word: an entry serves a
	// fetch only when its Raw equals the word just fetched. Decode is a
	// pure function of the word, and FetchDecode reads the word from
	// memory on every step, so a store that rewrites code changes the
	// word the next fetch compares and needs no invalidation. An entry
	// whose Op is OpInvalid is empty.
	memo [MemoSlots]alpha.Inst
}

// MemoSlots is the size of the decode memo, 7 KiB per CPU. Indexed by
// PC, 256 slots hold any loop of up to 256 instructions without a
// conflict: over oracle-diff's 96 guests 99.95% of fetches hit (gcc,
// the worst, 99.75%). A server holds one memo per resident CPU, so the
// table stays small. The VM's memo of interpreted trace records uses
// the same size and index.
const MemoSlots = 256

// MemoIndex is the memo slot of the instruction at pc: its word index
// modulo MemoSlots.
func MemoIndex(pc uint64) uint64 { return (pc >> 2) & (MemoSlots - 1) }

// New returns a CPU with the given memory, PC 0, and all registers zero.
func New(m *mem.Memory) *CPU {
	return &CPU{Mem: m}
}

// LoadProgram copies an assembled program into memory and sets the PC to
// its entry point. Pages touched by the program are mapped, so they remain
// accessible in Strict mode.
func (c *CPU) LoadProgram(p *alphaprog.Program) error {
	for _, seg := range p.Segments {
		if err := c.Mem.Map(seg.Addr, uint64(len(seg.Data))); err != nil {
			return err
		}
		if err := c.Mem.Write8s(seg.Addr, seg.Data); err != nil {
			return err
		}
	}
	c.PC = p.Entry
	return nil
}

// ReadReg returns the value of r, respecting the hardwired zero register.
func (c *CPU) ReadReg(r alpha.Reg) uint64 {
	if r == alpha.RegZero {
		return 0
	}
	return c.Reg[r]
}

// WriteReg sets r to v; writes to the zero register are discarded.
func (c *CPU) WriteReg(r alpha.Reg, v uint64) {
	if r != alpha.RegZero {
		c.Reg[r] = v
	}
}

// FetchDecode fetches and decodes the instruction at PC without executing
// it. The result points into the CPU's decode memo: it stays valid until
// the next FetchDecode on this CPU, which may overwrite it. Callers that
// keep the instruction longer copy it.
func (c *CPU) FetchDecode() (*alpha.Inst, error) {
	if inst := c.decodedHit(); inst != nil {
		return inst, nil
	}
	return c.fetchDecodeMiss()
}

// decodedHit is FetchDecode's hit path, small enough to inline into the
// step loops: the memoised instruction at PC when the fetch slot holds
// PC's page and the memo entry holds the word fetched, and nil
// otherwise.
func (c *CPU) decodedHit() *alpha.Inst {
	w, ok := c.Mem.FetchHit(c.PC)
	e := &c.memo[MemoIndex(c.PC)]
	if !ok || e.Raw != alpha.Word(w) || e.Op == alpha.OpInvalid {
		return nil
	}
	return e
}

// fetchDecodeMiss is FetchDecode's miss path: it fetches through
// Fetch32, which raises every fault, and refills the memo entry when it
// does not hold the word fetched.
func (c *CPU) fetchDecodeMiss() (*alpha.Inst, error) {
	w, err := c.Mem.Fetch32(c.PC)
	if err != nil {
		return nil, &Trap{PC: c.PC, Cause: err}
	}
	e := &c.memo[MemoIndex(c.PC)]
	if e.Raw != alpha.Word(w) || e.Op == alpha.OpInvalid {
		*e = alpha.Decode(alpha.Word(w))
	}
	return e, nil
}

// Step fetches, decodes, and executes one instruction. On a fetch and
// memo hit it makes one call, to Exec. It repeats FetchDecode's two
// paths rather than call it: FetchDecode is too large to inline, and
// the extra call read slower in 17 of 20 oracle-diff benchmark pairs
// (EXPERIMENTS.md note 20).
func (c *CPU) Step() error {
	inst := c.decodedHit()
	if inst == nil {
		var err error
		if inst, err = c.fetchDecodeMiss(); err != nil {
			return err
		}
	}
	return c.Exec(inst)
}

// Run executes instructions until the CPU halts, a trap occurs, or max
// instructions have executed (ErrInstLimit). max <= 0 means no limit.
func (c *CPU) Run(max int64) error {
	for !c.Halted {
		if max > 0 && int64(c.InstCount) >= max {
			return ErrInstLimit
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Exec executes a single decoded instruction, updating PC and state. A
// returned error is always a *Trap; architected state is exactly the state
// before the faulting instruction (precise).
func (c *CPU) Exec(inst *alpha.Inst) error {
	pc := c.PC
	next := pc + alpha.InstBytes

	switch {
	case inst.Op == alpha.OpInvalid:
		return &Trap{PC: pc, Cause: ErrIllegalInstruction}
	case inst.Op == alpha.OpUnsupported:
		return &Trap{PC: pc, Cause: ErrUnsupported}

	case inst.Op == alpha.OpCallPAL:
		if err := c.execPAL(inst, pc); err != nil {
			return err
		}

	case inst.Format == alpha.FormatMemory:
		if err := c.execMemory(inst, pc); err != nil {
			return err
		}

	case inst.Format == alpha.FormatOperate:
		b := c.ReadReg(inst.Rb)
		if inst.UseLit {
			b = uint64(inst.Lit)
		}
		if inst.IsCMOV() {
			if EvalCond(inst.Op, c.ReadReg(inst.Ra)) {
				c.WriteReg(inst.Rc, b)
			}
		} else {
			c.WriteReg(inst.Rc, EvalOp(inst.Op, c.ReadReg(inst.Ra), b))
		}

	case inst.Format == alpha.FormatBranch:
		if inst.Op == alpha.OpBR || inst.Op == alpha.OpBSR {
			c.WriteReg(inst.Ra, next)
			next = inst.BranchTarget(pc)
		} else if EvalCond(inst.Op, c.ReadReg(inst.Ra)) {
			next = inst.BranchTarget(pc)
		}

	case inst.Format == alpha.FormatMemJump:
		target := c.ReadReg(inst.Rb) &^ 3
		c.WriteReg(inst.Ra, next)
		next = target

	case inst.Format == alpha.FormatMemFunc:
		if inst.Op == alpha.OpRPCC {
			c.WriteReg(inst.Ra, c.InstCount)
		}
		// MB/WMB/TRAPB/EXCB: no effect on this uniprocessor model.

	default:
		return &Trap{PC: pc, Cause: ErrIllegalInstruction}
	}

	c.PC = next
	c.InstCount++
	return nil
}

func (c *CPU) execMemory(inst *alpha.Inst, pc uint64) error {
	switch inst.Op {
	case alpha.OpLDA:
		c.WriteReg(inst.Ra, c.ReadReg(inst.Rb)+uint64(int64(inst.Disp)))
		return nil
	case alpha.OpLDAH:
		c.WriteReg(inst.Ra, c.ReadReg(inst.Rb)+uint64(int64(inst.Disp))<<16)
		return nil
	}
	addr := c.ReadReg(inst.Rb) + uint64(int64(inst.Disp))
	trap := func(err error) error { return &Trap{PC: pc, Cause: err} }
	switch inst.Op {
	case alpha.OpLDBU:
		v, err := c.Mem.Read8(addr)
		if err != nil {
			return trap(err)
		}
		c.WriteReg(inst.Ra, uint64(v))
	case alpha.OpLDWU:
		v, err := c.Mem.Read16(addr)
		if err != nil {
			return trap(err)
		}
		c.WriteReg(inst.Ra, uint64(v))
	case alpha.OpLDL:
		v, err := c.Mem.Read32(addr)
		if err != nil {
			return trap(err)
		}
		c.WriteReg(inst.Ra, sext32(uint64(v)))
	case alpha.OpLDQ:
		v, ok := c.Mem.Hit64(addr)
		if !ok {
			var err error
			if v, err = c.Mem.Read64(addr); err != nil {
				return trap(err)
			}
		}
		c.WriteReg(inst.Ra, v)
	case alpha.OpLDQU:
		v, err := c.Mem.Read64(addr &^ 7)
		if err != nil {
			return trap(err)
		}
		c.WriteReg(inst.Ra, v)
	case alpha.OpLDLL:
		v, err := c.Mem.Read32(addr)
		if err != nil {
			return trap(err)
		}
		c.lockFlag, c.lockAddr = true, addr
		c.WriteReg(inst.Ra, sext32(uint64(v)))
	case alpha.OpLDQL:
		v, ok := c.Mem.Hit64(addr)
		if !ok {
			var err error
			if v, err = c.Mem.Read64(addr); err != nil {
				return trap(err)
			}
		}
		c.lockFlag, c.lockAddr = true, addr
		c.WriteReg(inst.Ra, v)
	case alpha.OpSTB:
		if err := c.Mem.Write8(addr, byte(c.ReadReg(inst.Ra))); err != nil {
			return trap(err)
		}
	case alpha.OpSTW:
		if err := c.Mem.Write16(addr, uint16(c.ReadReg(inst.Ra))); err != nil {
			return trap(err)
		}
	case alpha.OpSTL:
		if err := c.Mem.Write32(addr, uint32(c.ReadReg(inst.Ra))); err != nil {
			return trap(err)
		}
	case alpha.OpSTQ:
		if v := c.ReadReg(inst.Ra); !c.Mem.PutHit64(addr, v) {
			if err := c.Mem.Write64(addr, v); err != nil {
				return trap(err)
			}
		}
	case alpha.OpSTQU:
		if err := c.Mem.Write64(addr&^7, c.ReadReg(inst.Ra)); err != nil {
			return trap(err)
		}
	case alpha.OpSTLC:
		ok := c.lockFlag && c.lockAddr == addr
		if ok {
			if err := c.Mem.Write32(addr, uint32(c.ReadReg(inst.Ra))); err != nil {
				return trap(err)
			}
		}
		c.lockFlag = false
		if ok {
			c.WriteReg(inst.Ra, 1)
		} else {
			c.WriteReg(inst.Ra, 0)
		}
	case alpha.OpSTQC:
		ok := c.lockFlag && c.lockAddr == addr
		if v := c.ReadReg(inst.Ra); ok && !c.Mem.PutHit64(addr, v) {
			if err := c.Mem.Write64(addr, v); err != nil {
				return trap(err)
			}
		}
		c.lockFlag = false
		if ok {
			c.WriteReg(inst.Ra, 1)
		} else {
			c.WriteReg(inst.Ra, 0)
		}
	default:
		return trap(ErrIllegalInstruction)
	}
	return nil
}

func (c *CPU) execPAL(inst *alpha.Inst, pc uint64) error {
	switch inst.PALFn {
	case alpha.PALHalt:
		c.Halted = true
	case alpha.PALBpt:
		return &Trap{PC: pc, Cause: ErrBreakpoint}
	case alpha.PALCallSys:
		switch c.Reg[alpha.RegV0] {
		case alpha.SysExit:
			c.Halted = true
			c.ExitStatus = c.Reg[alpha.RegA0]
		case alpha.SysPutChar:
			c.Console = append(c.Console, byte(c.Reg[alpha.RegA0]))
		case alpha.SysGetTime:
			c.Reg[alpha.RegV0] = c.InstCount
		default:
			return &Trap{PC: pc, Cause: ErrBadSyscall}
		}
	default:
		return &Trap{PC: pc, Cause: ErrIllegalInstruction}
	}
	return nil
}

// ConsoleString returns the console output accumulated so far.
func (c *CPU) ConsoleString() string { return string(c.Console) }

// LockState returns the LDx_L/STx_C lock flag and locked address. It is
// architected state: a checkpoint taken between an LDx_L and its STx_C
// must preserve it for the conditional store to resolve identically.
func (c *CPU) LockState() (flag bool, addr uint64) { return c.lockFlag, c.lockAddr }

// SetLockState restores the lock flag and locked address (checkpoint
// restore).
func (c *CPU) SetLockState(flag bool, addr uint64) { c.lockFlag, c.lockAddr = flag, addr }
