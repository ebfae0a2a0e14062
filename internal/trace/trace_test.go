package trace

import (
	"strings"
	"testing"
)

func TestIsBranch(t *testing.T) {
	branchy := []Class{ClassBranch, ClassJump, ClassCall, ClassRet, ClassInd}
	for _, c := range branchy {
		r := Rec{Class: c}
		if !r.IsBranch() {
			t.Errorf("%v should be a branch", c)
		}
	}
	for _, c := range []Class{ClassALU, ClassMul, ClassLoad, ClassStore, ClassNop} {
		r := Rec{Class: c}
		if r.IsBranch() {
			t.Errorf("%v should not be a branch", c)
		}
	}
}

func TestCounterSink(t *testing.T) {
	var c Counter
	c.Append(Rec{VCredit: 1})
	c.Append(Rec{VCredit: 0})
	c.Append(Rec{VCredit: 2})
	if c.Recs != 3 || c.VCredit != 3 {
		t.Errorf("counter = %d recs, %d credit", c.Recs, c.VCredit)
	}
}

func TestMultiSink(t *testing.T) {
	var a, b Counter
	m := Multi{&a, &b}
	m.Append(Rec{VCredit: 1})
	if a.Recs != 1 || b.Recs != 1 {
		t.Error("multi sink did not fan out")
	}
}

func TestBufferSink(t *testing.T) {
	var b Buffer
	b.Append(Rec{PC: 1})
	b.Append(Rec{PC: 2})
	if len(b.Recs) != 2 || b.Recs[1].PC != 2 {
		t.Errorf("buffer = %+v", b.Recs)
	}
}

func TestClassString(t *testing.T) {
	if ClassLoad.String() != "load" || ClassRet.String() != "ret" {
		t.Error("class names wrong")
	}
	if Class(200).String() != "class?" {
		t.Error("out-of-range class name")
	}
}

// TestValidate: a record as the VM emits it passes, and each range the
// timing models index by, an unknown class, an odd size and a verdict
// already set are each refused.
func TestValidate(t *testing.T) {
	good := Rec{PC: 0x1000, Size: 4, Class: ClassLoad, SrcReg: [2]uint8{3, NoReg},
		DstReg: NumRegs - 1, SrcAcc: NoAcc, DstAcc: NumAccs - 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid record refused: %v", err)
	}
	for name, edit := range map[string]func(*Rec){
		"source register":      func(r *Rec) { r.SrcReg[1] = NumRegs },
		"destination register": func(r *Rec) { r.DstReg = 98 },
		"source accumulator":   func(r *Rec) { r.SrcAcc = NumAccs },
		"dest accumulator":     func(r *Rec) { r.DstAcc = 149 },
		"class":                func(r *Rec) { r.Class = ClassNop + 1 },
		"size":                 func(r *Rec) { r.Size = 3 },
		"zero size":            func(r *Rec) { r.Size = 0 },
		"verdict":              func(r *Rec) { r.Verdict = 1 },
	} {
		r := good
		edit(&r)
		if r.Validate() == nil {
			t.Errorf("%s: invalid record %+v accepted", name, r)
		}
	}
}

// TestCheckerSink forwards every record and keeps the first violation.
func TestCheckerSink(t *testing.T) {
	var b Buffer
	c := &Checker{Next: &b}
	c.Append(Rec{PC: 1, Size: 4, SrcReg: [2]uint8{NoReg, NoReg}, DstReg: NoReg, SrcAcc: NoAcc, DstAcc: NoAcc})
	c.Append(Rec{PC: 2, Size: 4, SrcReg: [2]uint8{99, NoReg}})
	c.Append(Rec{PC: 3, Size: 5})
	if len(b.Recs) != 3 || c.Recs != 3 {
		t.Fatalf("checker forwarded %d of %d records", len(b.Recs), c.Recs)
	}
	if c.Err == nil || !strings.Contains(c.Err.Error(), "record 1:") {
		t.Errorf("Err = %v, want the violation of record 1", c.Err)
	}
}
