// Package trace defines the dynamic instruction records exchanged between
// the co-designed VM's functional execution and the trace-driven timing
// models. One record stream format serves all four simulated machines:
// native Alpha on the superscalar ("original"), code-straightened Alpha on
// the superscalar, and Basic/Modified accumulator code on the ILDP
// microarchitecture.
package trace

import "fmt"

// Class is the execution class of a dynamic instruction.
type Class uint8

const (
	ClassALU Class = iota
	ClassMul       // long-latency integer op
	ClassLoad
	ClassStore
	ClassBranch // conditional branch
	ClassJump   // unconditional direct branch
	ClassCall   // direct call (pushes a return address)
	ClassRet    // return (pops a return address)
	ClassInd    // other indirect jump
	ClassNop
)

var classNames = [...]string{
	"alu", "mul", "load", "store", "branch", "jump", "call", "ret", "ind", "nop",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class?"
}

// NoReg marks an absent register operand; NoAcc an absent accumulator.
const (
	NoReg uint8 = 0xFF
	NoAcc uint8 = 0xFF
)

// NumRegs and NumAccs bound a record's register and accumulator
// numbers: 64 GPRs (the 32 architected ones plus the VM's scratch
// registers) and 8 accumulators.
const (
	NumRegs = 64
	NumAccs = 8
)

// Rec is one committed dynamic instruction.
type Rec struct {
	// PC is the fetch address: the Alpha PC for native traces, the
	// translation-cache I-address for translated traces.
	PC   uint64
	Size uint8 // encoded bytes at PC (4 for Alpha; 2/4/8 for I-ISA)

	Class Class

	// Register operands (GPR numbers; NoReg when absent). SrcAcc/DstAcc
	// carry the accumulator (strand) for ILDP traces.
	SrcReg [2]uint8
	DstReg uint8
	SrcAcc uint8
	DstAcc uint8

	// DstOperational marks a GPR write that must reach the
	// latency-critical operational register file (inter-strand
	// communication); architected-state-only writes in the Modified form
	// go off the critical path.
	DstOperational bool

	// Memory access (loads/stores).
	MemAddr  uint64
	MemWidth uint8

	// Control flow.
	Taken  bool
	Target uint64 // actual next fetch address when Taken
	// Indirect marks control transfers whose target is not encoded in the
	// instruction (JSR/JMP): a wrong BTB target is discovered at execute,
	// not decode.
	Indirect bool

	// RASPush carries the predicted return target pushed by a call; for
	// ClassRet records under the dual-address RAS, PredHit reports whether
	// the functional RAS supplied the correct target.
	PredHit bool

	// VCredit is the number of V-ISA instructions retired at this record.
	VCredit uint8

	// Verdict belongs to the timing model: its fetch stage writes what
	// it decided about the record here, for its timing core to read.
	// Producers leave it zero. It sits in what was padding, so a Rec
	// stays 48 bytes.
	Verdict uint8
}

// Validate checks r against the record contract: the ranges the timing
// models index by (registers below NumRegs, accumulators below NumAccs,
// a known Class), an encoded Size of 2, 4 or 8 bytes, and a zero
// Verdict, as every producer leaves it. It returns nil for a valid
// record.
func (r *Rec) Validate() error {
	for _, reg := range [...]uint8{r.SrcReg[0], r.SrcReg[1], r.DstReg} {
		if reg != NoReg && reg >= NumRegs {
			return fmt.Errorf("trace: register %d at PC %#x, want below %d", reg, r.PC, NumRegs)
		}
	}
	for _, acc := range [...]uint8{r.SrcAcc, r.DstAcc} {
		if acc != NoAcc && acc >= NumAccs {
			return fmt.Errorf("trace: accumulator %d at PC %#x, want below %d", acc, r.PC, NumAccs)
		}
	}
	if int(r.Class) >= len(classNames) {
		return fmt.Errorf("trace: class %d at PC %#x", r.Class, r.PC)
	}
	if r.Size != 2 && r.Size != 4 && r.Size != 8 {
		return fmt.Errorf("trace: size %d at PC %#x, want 2, 4 or 8", r.Size, r.PC)
	}
	if r.Verdict != 0 {
		return fmt.Errorf("trace: verdict %#x at PC %#x as produced, want 0", r.Verdict, r.PC)
	}
	return nil
}

// IsBranch reports whether the record can redirect fetch.
func (r *Rec) IsBranch() bool {
	switch r.Class {
	case ClassBranch, ClassJump, ClassCall, ClassRet, ClassInd:
		return true
	}
	return false
}

// Sink consumes a committed-instruction stream.
type Sink interface {
	Append(Rec)
}

// Multi fans a record stream out to several sinks.
type Multi []Sink

// Append implements Sink.
func (m Multi) Append(r Rec) {
	for _, s := range m {
		s.Append(r)
	}
}

// Counter is a Sink that just counts records and V-credits.
type Counter struct {
	Recs    uint64
	VCredit uint64
}

// Append implements Sink.
func (c *Counter) Append(r Rec) {
	c.Recs++
	c.VCredit += uint64(r.VCredit)
}

// Checker is a Sink that validates each record (see Rec.Validate) and
// forwards it to Next, for tests. It keeps the first violation.
type Checker struct {
	Next Sink
	Recs uint64 // records checked
	Err  error  // the first violation, or nil
}

// Append implements Sink.
func (c *Checker) Append(r Rec) {
	c.Recs++
	if c.Err == nil {
		if err := r.Validate(); err != nil {
			c.Err = fmt.Errorf("record %d: %w", c.Recs-1, err)
		}
	}
	c.Next.Append(r)
}

// Buffer is a Sink that retains all records, for tests.
type Buffer struct {
	Recs []Rec
}

// Append implements Sink.
func (b *Buffer) Append(r Rec) { b.Recs = append(b.Recs, r) }
