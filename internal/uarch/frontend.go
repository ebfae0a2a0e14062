package uarch

import (
	"github.com/ildp/accdbt/internal/bpred"
	"github.com/ildp/accdbt/internal/cachesim"
	"github.com/ildp/accdbt/internal/trace"
)

const fetchLineBytes = 128 // I-cache line (Table 1)

// The front end models instruction fetch: up to Width instructions per
// cycle from one I-cache line, at most three sequential basic blocks
// per cycle, taken branches end the fetch group, 3-cycle redirects on
// mispredicts (execute-time) and misfetches (decode-time), and I-cache
// miss stalls.
//
// It is split in two. The fetch stage decides everything about fetch
// that the record stream alone determines: where fetch groups start,
// I-cache hits and misses, branch prediction and the redirects it
// causes. It writes its decision for each record as a verdict. The
// timing core's fetch clock turns verdicts into cycles. No decision of
// the stage depends on a cycle, so the stage can run ahead of the core,
// on another goroutine (trace.Pipe).

// verdict is the fetch stage's decision about one record, as it rides
// in trace.Rec.Verdict: whether the record starts a fetch group and
// when that group may start, whether its I-cache access missed, and
// the redirect the record causes. The bits spell out the arithmetic
// the fetch clock does, so that the clock need not branch on what the
// stage already branched on.
type verdict uint8

const (
	// advance: the record starts a group a cycle after the last one.
	advance verdict = 1 << iota
	// breaks: the group starts no earlier than the pending redirect's
	// target either.
	breaks
	// starts: the record starts a fetch group, with an I-cache access.
	starts
	// iMiss: the group's I-cache access missed.
	iMiss
	// redirects: the record redirects fetch; the next record breaks.
	// The target is the record's fetch cycle plus 1, but counts from its
	// done cycle with fromDone (an execute-time mispredict) or its
	// retire cycle with fromRet (a mode switch drains the pipeline), and
	// adds RedirectLat instead of 1 with lossy, whose redirects lose the
	// cycles from fetch to the target.
	redirects
	fromDone
	fromRet
	lossy

	groupNext       = advance | starts          // width, line or block limit
	groupBreak      = advance | breaks | starts // after a redirect
	redirTaken      = redirects                 // a predicted taken branch or a third block
	redirMisfetch   = redirects | lossy         // a decode-time target miss
	redirMispredict = redirects | fromDone | lossy
	redirDrain      = redirects | fromRet
)

// mask returns all ones if v has bit set, else zero: a select that
// needs no branch.
func (v verdict) mask(bit verdict) int64 { return -int64(v & bit / bit) }

// fetchStage is the front end's stream-determined half: the branch
// predictors, the I-cache tags, the group, slot, block and line
// tracking, the pending redirect, and the branch counters. It holds
// the predictors by value, so that what it writes shares no cache line
// with the timing core's state when the two run on different CPUs.
type fetchStage struct {
	cfg *Config

	gshare bpred.GShare
	btb    bpred.BTB
	ras    bpred.RAS
	icache *cachesim.Cache

	slots   int
	blocks  int
	line    uint64
	started bool

	breakPending bool

	condMiss   uint64
	targetMiss uint64
	misfetches uint64
	branches   uint64
	clock      uint64
}

func newFetchStage(cfg *Config, icache *cachesim.Cache) *fetchStage {
	return &fetchStage{
		cfg:    cfg,
		gshare: *bpred.DefaultGShare(),
		btb:    *bpred.DefaultBTB(),
		ras:    *bpred.DefaultRAS(),
		icache: icache,
	}
}

// StageBatch implements trace.Stage: it writes each record's verdict.
func (f *fetchStage) StageBatch(recs []trace.Rec) {
	for i := range recs {
		recs[i].Verdict = uint8(f.step(&recs[i]))
	}
}

// step decides rec's verdict: its fetch group, the group's I-cache
// access, and, for a control transfer, its prediction.
func (f *fetchStage) step(rec *trace.Rec) verdict {
	var v verdict
	switch {
	case !f.started:
		f.started = true
		v = starts
	case f.breakPending:
		f.breakPending = false
		v = groupBreak
	case f.slots >= f.cfg.Width:
		v = groupNext
	case rec.PC&^uint64(fetchLineBytes-1) != f.line:
		// Sequential fetch crossed an I-cache line: next cycle.
		v = groupNext
	}
	if v != 0 {
		f.slots = 0
		f.blocks = 0
		f.line = rec.PC &^ uint64(fetchLineBytes-1)
		// I-cache access at group start. The I-cache alone decides hit
		// or miss; the core services a miss from the L2.
		if !f.icache.Lookup(f.line) {
			v |= iMiss
		}
	}
	f.slots++
	if rec.IsBranch() {
		if isEndOfRun(rec) {
			// Mode switch: the next group starts after the drain.
			v |= redirDrain
		} else {
			v |= f.resolve(rec)
		}
		if v&redirects != 0 {
			f.breakPending = true
		}
	}
	return v
}

// resolve applies branch prediction to a control-transfer record and
// returns the redirect it causes, if any.
func (f *fetchStage) resolve(rec *trace.Rec) verdict {
	f.branches++
	f.clock++
	pc := rec.PC

	switch rec.Class {
	case trace.ClassBranch:
		if !f.gshare.Update(pc, rec.Taken) {
			f.condMiss++
			return redirMispredict
		}
		if rec.Taken {
			tgt, ok := f.btb.Predict(pc)
			f.btb.Update(pc, rec.Target, f.clock)
			if !ok || tgt != rec.Target {
				f.misfetches++
				return redirMisfetch
			}
			return redirTaken
		}
		// Correct not-taken: another sequential basic block.
		f.blocks++
		if f.blocks >= 3 {
			return redirTaken
		}
		return 0

	case trace.ClassJump, trace.ClassCall:
		if rec.Class == trace.ClassCall && f.cfg.UseHWRAS {
			f.ras.Push(pc + uint64(rec.Size))
		}
		tgt, ok := f.btb.Predict(pc)
		f.btb.Update(pc, rec.Target, f.clock)
		if !ok || tgt != rec.Target {
			if rec.Indirect {
				// The target register is only known at execute time.
				return f.targetMispredict()
			}
			f.misfetches++
			return redirMisfetch
		}
		return redirTaken

	case trace.ClassRet:
		var hit bool
		switch {
		case f.cfg.DualRASTrace:
			// The co-designed dual-address RAS is the fetch predictor; the
			// VM recorded whether it supplied the right target.
			hit = rec.PredHit
		case f.cfg.UseHWRAS:
			tgt, ok := f.ras.Pop()
			hit = ok && tgt == rec.Target && rec.Taken
		default:
			// No RAS: returns go through the BTB and usually miss.
			tgt, ok := f.btb.Predict(pc)
			f.btb.Update(pc, rec.Target, f.clock)
			hit = ok && tgt == rec.Target && rec.Taken
		}
		if !hit {
			return f.targetMispredict()
		}
		return redirTaken

	case trace.ClassInd:
		tgt, ok := f.btb.Predict(pc)
		f.btb.Update(pc, rec.Target, f.clock)
		if !ok || tgt != rec.Target {
			return f.targetMispredict()
		}
		return redirTaken
	}
	return 0
}

// result copies the branch counters into r.
func (f *fetchStage) result(r *Result) {
	r.CondMispredicts = f.condMiss
	r.TargetMispredicts = f.targetMiss
	r.Misfetches = f.misfetches
	r.Branches = f.branches
}

func (f *fetchStage) targetMispredict() verdict {
	f.targetMiss++
	return redirMispredict
}

// fetchClock is the timing core's half of the front end: it turns the
// fetch stage's verdicts into fetch cycles and accounts the cycles lost
// to I-cache misses and redirects.
type fetchClock struct {
	redirectLat int64
	// A group start's I-cache access costs iLatency, and a miss adds an
	// access to iNext. The clock keeps its own copies and never touches
	// the I-cache itself: that belongs to the fetch stage, which may be
	// running on another goroutine.
	iLatency int64
	iNext    cachesim.Level

	cycle  int64
	nextAt int64 // the pending redirect's target cycle

	icacheStall  int64
	redirectLoss int64
}

func newFetchClock(cfg *Config, icache *cachesim.Cache) fetchClock {
	return fetchClock{redirectLat: cfg.RedirectLat, iLatency: icache.Latency(), iNext: icache.Next()}
}

// fetch returns the fetch cycle of a record whose verdict is v. When
// v has iMiss, the caller adds the miss with miss.
func (c *fetchClock) fetch(v verdict) int64 {
	cycle := c.cycle + int64(v&advance)
	// After a redirect, max(target, last+1); masked off, nextAt is 0.
	cycle = max(cycle, c.nextAt&v.mask(breaks))
	// Hits are pipelined (zero extra); misses stall fetch.
	stall := c.iLatency & v.mask(starts)
	c.cycle = cycle + stall
	c.icacheStall += stall
	return c.cycle
}

// miss stalls fetch for rec's I-cache miss, an access to the next
// level, and returns the new fetch cycle.
func (c *fetchClock) miss(rec *trace.Rec) int64 {
	if c.iNext != nil {
		stall := c.iNext.Access(rec.PC&^uint64(fetchLineBytes-1), false)
		c.cycle += stall
		c.icacheStall += stall
	}
	return c.cycle
}

// redirect schedules the redirect that verdict v names, for a record
// fetched at fc, done at done and retired at ret. Only the next record
// reads the target, so it replaces any earlier one.
func (c *fetchClock) redirect(v verdict, fc, done, ret int64) {
	at := fc
	if v&fromDone != 0 {
		at = done
	}
	if v&fromRet != 0 {
		at = ret
	}
	lat := int64(1)
	if v&lossy != 0 {
		lat = c.redirectLat
	}
	at += lat
	c.nextAt = at
	c.redirectLoss += (at - fc) & v.mask(lossy)
}

// result copies the stall accounting into r.
func (c *fetchClock) result(r *Result) {
	r.ICacheStall = c.icacheStall
	r.RedirectLoss = c.redirectLoss
}
