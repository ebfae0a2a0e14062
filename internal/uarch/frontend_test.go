package uarch

import (
	"testing"

	"github.com/ildp/accdbt/internal/cachesim"
	"github.com/ildp/accdbt/internal/trace"
)

// testFE drives the front end's two halves one record at a time, as a
// model's Append does, for tests that choose each record's done cycle.
type testFE struct {
	*fetchStage
	clk fetchClock
	cfg Config
	v   verdict // the last record's verdict
}

func newFE(cfg Config) *testFE {
	hier := cachesim.NewHierarchy(cfg.CacheOpts)
	f := &testFE{cfg: cfg}
	f.fetchStage = newFetchStage(&f.cfg, hier.I)
	f.clk = newFetchClock(&f.cfg, hier.I)
	return f
}

// fetch runs the fetch stage over rec and returns its fetch cycle.
func (f *testFE) fetch(rec *trace.Rec) int64 {
	f.v = f.step(rec)
	if f.v&iMiss != 0 {
		f.clk.fetch(f.v)
		return f.clk.miss(rec)
	}
	return f.clk.fetch(f.v)
}

// resolve schedules the redirect of the last record, fetched at fc and
// done at done.
func (f *testFE) resolve(_ *trace.Rec, fc, done int64) { f.clk.redirect(f.v, fc, done, done) }

// redirect starts the next fetch group at cycle at, or the next cycle.
func (f *testFE) redirect(at int64) {
	f.breakPending = true
	f.clk.nextAt = max(f.clk.nextAt, at)
}

func brRec(pc uint64, class trace.Class, taken bool, target uint64) trace.Rec {
	return trace.Rec{
		PC: pc, Size: 4, Class: class,
		SrcReg: [2]uint8{trace.NoReg, trace.NoReg},
		DstReg: trace.NoReg, SrcAcc: trace.NoAcc, DstAcc: trace.NoAcc,
		Taken: taken, Target: target,
	}
}

func TestFetchGroupsWidthLimited(t *testing.T) {
	fe := newFE(DefaultOoO())
	// Warm the I-cache line first.
	fe.fetch(&trace.Rec{PC: 0x1000, Size: 4})
	base := fe.clk.cycle
	cycles := map[int64]int{}
	for i := 1; i < 12; i++ {
		fc := fe.fetch(&trace.Rec{PC: 0x1000 + uint64(i)*4, Size: 4})
		cycles[fc-base]++
	}
	// Four per cycle after the first (which shared cycle 0 with 3 more).
	for c, n := range cycles {
		if n > 4 {
			t.Errorf("cycle %d fetched %d instructions", c, n)
		}
	}
}

func TestLineCrossingBreaksGroup(t *testing.T) {
	fe := newFE(DefaultOoO())
	fe.fetch(&trace.Rec{PC: 0x1078, Size: 4}) // near end of a 128B line
	fc1 := fe.fetch(&trace.Rec{PC: 0x107C, Size: 4})
	fc2 := fe.fetch(&trace.Rec{PC: 0x1080, Size: 4}) // next line
	if fc2 <= fc1 {
		t.Errorf("line crossing did not break the fetch group: %d -> %d", fc1, fc2)
	}
}

func TestCondMispredictRedirectsAfterExecute(t *testing.T) {
	fe := newFE(DefaultOoO())
	rec := brRec(0x1000, trace.ClassBranch, true, 0x2000)
	fc := fe.fetch(&rec)
	done := fc + 10
	fe.resolve(&rec, fc, done) // cold predictor: not-taken predicted, actual taken
	if fe.condMiss != 1 {
		t.Fatalf("condMiss = %d", fe.condMiss)
	}
	nrec := brRec(0x2000, trace.ClassBranch, false, 0)
	next := fe.fetch(&nrec)
	if next < done+fe.cfg.RedirectLat {
		t.Errorf("next fetch %d before redirect %d", next, done+fe.cfg.RedirectLat)
	}
}

func TestMisfetchRedirectsFromFetch(t *testing.T) {
	fe := newFE(DefaultOoO())
	// Train the direction but not the target... a taken branch with a cold
	// BTB is a misfetch. First warm gshare to predict taken.
	for i := 0; i < 8; i++ {
		rec := brRec(0x1000, trace.ClassBranch, true, 0x2000)
		fc := fe.fetch(&rec)
		fe.resolve(&rec, fc, fc+5)
		filler := brRec(0x2000, trace.ClassALU, false, 0)
		fe.fetch(&filler) // consume redirect
	}
	missBefore := fe.misfetches
	// A different PC, trained-taken history, cold BTB entry.
	rec := brRec(0x3000, trace.ClassBranch, true, 0x4000)
	fc := fe.fetch(&rec)
	fe.resolve(&rec, fc, fc+5)
	if fe.misfetches <= missBefore && fe.condMiss == 0 {
		t.Error("cold-BTB taken branch neither misfetched nor mispredicted")
	}
}

func TestIndirectCallMispredictsNotMisfetches(t *testing.T) {
	fe := newFE(DefaultOoO())
	rec := brRec(0x1000, trace.ClassCall, true, 0x5000)
	rec.Indirect = true
	fc := fe.fetch(&rec)
	fe.resolve(&rec, fc, fc+7)
	if fe.targetMiss != 1 || fe.misfetches != 0 {
		t.Errorf("indirect call: targetMiss=%d misfetch=%d; want execute-time mispredict",
			fe.targetMiss, fe.misfetches)
	}
	// Direct call with cold BTB is only a misfetch.
	fe2 := newFE(DefaultOoO())
	rec2 := brRec(0x1000, trace.ClassCall, true, 0x5000)
	fc2 := fe2.fetch(&rec2)
	fe2.resolve(&rec2, fc2, fc2+7)
	if fe2.misfetches != 1 || fe2.targetMiss != 0 {
		t.Errorf("direct call: misfetch=%d targetMiss=%d", fe2.misfetches, fe2.targetMiss)
	}
}

func TestHWRASPredictsReturns(t *testing.T) {
	cfg := DefaultOoO()
	cfg.UseHWRAS = true
	fe := newFE(cfg)
	// Call pushes pc+4; matching return predicts perfectly.
	call := brRec(0x1000, trace.ClassCall, true, 0x5000)
	fc := fe.fetch(&call)
	fe.resolve(&call, fc, fc+1) // misfetch (cold BTB) but pushes RAS
	ret := brRec(0x5010, trace.ClassRet, true, 0x1004)
	fc = fe.fetch(&ret)
	before := fe.targetMiss
	fe.resolve(&ret, fc, fc+1)
	if fe.targetMiss != before {
		t.Error("RAS-predicted return counted as mispredict")
	}
	// A return to somewhere else mispredicts.
	call2 := brRec(0x1000, trace.ClassCall, true, 0x5000)
	fc = fe.fetch(&call2)
	fe.resolve(&call2, fc, fc+1)
	wrong := brRec(0x5010, trace.ClassRet, true, 0x9999000)
	fc = fe.fetch(&wrong)
	fe.resolve(&wrong, fc, fc+1)
	if fe.targetMiss != before+1 {
		t.Error("wrong-target return not counted")
	}
}

func TestDualRASTraceUsesPredHit(t *testing.T) {
	cfg := DefaultILDP()
	fe := newFE(cfg)
	hit := brRec(0x1000, trace.ClassRet, true, 0x2000)
	hit.PredHit = true
	fc := fe.fetch(&hit)
	fe.resolve(&hit, fc, fc+1)
	if fe.targetMiss != 0 {
		t.Error("dual-RAS hit counted as mispredict")
	}
	miss := brRec(0x1010, trace.ClassRet, false, 0)
	fc = fe.fetch(&miss)
	fe.resolve(&miss, fc, fc+1)
	if fe.targetMiss != 1 {
		t.Error("dual-RAS miss not counted")
	}
}

func TestThreeBlockFetchLimit(t *testing.T) {
	fe := newFE(DefaultOoO())
	cfg := fe.cfg
	_ = cfg
	// Warm gshare for three not-taken branches at distinct PCs.
	pcs := []uint64{0x1000, 0x1008, 0x1010, 0x1018}
	for w := 0; w < 10; w++ {
		for _, pc := range pcs {
			rec := brRec(pc, trace.ClassBranch, false, 0)
			fc := fe.fetch(&rec)
			fe.resolve(&rec, fc, fc+1)
		}
		// Reset the group between warm-up rounds.
		fe.redirect(fe.clk.cycle + 1)
	}
	// Now fetch four correctly-predicted not-taken branches in a row: the
	// fourth must start a new cycle (3 sequential basic blocks max).
	fe.redirect(fe.clk.cycle + 2)
	var fcs []int64
	for _, pc := range pcs {
		rec := brRec(pc, trace.ClassBranch, false, 0)
		fc := fe.fetch(&rec)
		fe.resolve(&rec, fc, fc+1)
		fcs = append(fcs, fc)
	}
	if fcs[3] == fcs[2] {
		t.Errorf("fourth sequential block fetched in the same cycle: %v", fcs)
	}
}
