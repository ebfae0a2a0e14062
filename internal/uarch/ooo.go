package uarch

import (
	"github.com/ildp/accdbt/internal/cachesim"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/trace"
)

// OoO is the idealised out-of-order superscalar timing model ("original"
// and "code-straightening-only" machines). It implements trace.Sink.
type OoO struct {
	cfg  Config
	hier *cachesim.Hierarchy
	fs   *fetchStage
	fc   fetchClock

	regReady [regSpace]int64 // completion cycle of each register's value

	// The retire cycle of the last ROB entries, for window occupancy: a
	// ring whose next slot holds the oldest.
	rob     []int64
	robSlot int
	ret     retireBW

	// FU contention: a cycle-tagged booking ring.
	fuBusy bookRing

	// store-to-load dependences at 8-byte granularity.
	storeDone map[uint64]int64

	// prof, when non-nil, receives every record's retire cycle
	// (the superscalar has no PEs; everything reports element 0).
	prof *prof.Profiler

	res Result
}

// SetProfiler attaches an execution profiler fed with per-record retire
// timing. A nil profiler disables the feed.
func (m *OoO) SetProfiler(p *prof.Profiler) { m.prof = p }

// NewOoO builds a superscalar model with the given configuration. Zero
// machine parameters take their Table 1 values (see Config.withDefaults).
func NewOoO(cfg Config) *OoO {
	cfg = cfg.withDefaults()
	hier := cachesim.NewHierarchy(cfg.CacheOpts)
	return &OoO{
		cfg:       cfg,
		hier:      hier,
		fs:        newFetchStage(&cfg, hier.I),
		fc:        newFetchClock(&cfg, hier.I),
		rob:       make([]int64, cfg.ROB),
		fuBusy:    newBookRing(),
		storeDone: map[uint64]int64{},
	}
}

// Append implements trace.Sink: schedule one committed instruction.
func (m *OoO) Append(rec trace.Rec) { m.schedule(&rec, m.fs.step(&rec)) }

// AppendBatch implements trace.BatchSink: Append each record in order.
// It decides each record's verdict afresh, ignoring rec.Verdict.
func (m *OoO) AppendBatch(recs []trace.Rec) {
	for i := range recs {
		m.schedule(&recs[i], m.fs.step(&recs[i]))
	}
}

// Stages returns the model's two halves, for a trace.Pipe: its fetch
// stage, which writes each record's verdict, and its timing core, which
// schedules records by the verdicts they carry. Fed every record in
// order, the two together time a stream exactly as Append does.
func (m *OoO) Stages() (trace.Stage, trace.BatchSink) { return m.fs, (*oooCore)(m) }

// oooCore is the timing core of an OoO model.
type oooCore OoO

// AppendBatch implements trace.BatchSink.
func (c *oooCore) AppendBatch(recs []trace.Rec) {
	m := (*OoO)(c)
	for i := range recs {
		m.schedule(&recs[i], verdict(recs[i].Verdict))
	}
}

// schedule times one committed instruction whose fetch verdict is v.
func (m *OoO) schedule(rec *trace.Rec, v verdict) {
	fc := m.fc.fetch(v)
	if v&iMiss != 0 {
		fc = m.fc.miss(rec)
	}

	// Dispatch one stage after fetch; wait for a ROB slot. A slot not
	// yet written holds cycle 0, and disp >= 1, so it never delays
	// dispatch.
	disp := max(fc, m.rob[m.robSlot]) + 1

	// Operand readiness.
	ready := disp
	for _, r := range rec.SrcReg {
		if r != trace.NoReg {
			ready = max(ready, m.regReady[gprIdx(r)])
		}
	}
	if rec.SrcAcc != trace.NoAcc {
		ready = max(ready, m.regReady[accIdx(rec.SrcAcc)])
	}

	// Issue: oldest-first through the shared FU pool.
	var issue, done int64
	switch rec.Class {
	case trace.ClassNop:
		issue = ready
		done = ready
	case trace.ClassLoad:
		issue = m.fuBusy.reserve(ready, uint16(m.cfg.FUs))
		lat := m.hier.D[0].Access(rec.MemAddr, false)
		m.res.DCacheStall += lat - 2
		done = issue + lat
		if sd, ok := m.storeDone[rec.MemAddr>>3]; ok {
			done = max(done, sd)
		}
	case trace.ClassStore:
		issue = m.fuBusy.reserve(ready, uint16(m.cfg.FUs))
		lat := m.hier.D[0].Access(rec.MemAddr, true)
		_ = lat // stores retire without waiting for the write to complete
		done = issue + 1
		m.storeDone[rec.MemAddr>>3] = done
	case trace.ClassMul:
		issue = m.fuBusy.reserve(ready, uint16(m.cfg.FUs))
		done = issue + m.cfg.MulLat
	default:
		issue = m.fuBusy.reserve(ready, uint16(m.cfg.FUs))
		done = issue + 1
	}

	// Destination availability.
	if rec.DstReg != trace.NoReg {
		m.regReady[gprIdx(rec.DstReg)] = done
	}
	if rec.DstAcc != trace.NoAcc {
		m.regReady[accIdx(rec.DstAcc)] = done
	}

	// In-order retirement with bandwidth Width.
	ret := m.ret.retire(done, m.cfg.Width)
	m.rob[m.robSlot] = ret
	if m.robSlot++; m.robSlot == len(m.rob) {
		m.robSlot = 0
	}

	m.prof.Retire(0, ret, profAcc(rec))

	m.res.Insts++
	m.res.VInsts += uint64(rec.VCredit)
	if v&redirects != 0 {
		m.fc.redirect(v, fc, done, ret)
		if v&fromRet != 0 {
			// Mode switch: restart with an empty pipeline.
			m.res.Episodes++
			m.resetPipeline(ret)
		}
	}
}

// resetPipeline clears in-flight state across a mode switch (register
// values are architectural and stay; timing readiness collapses to the
// drain point).
func (m *OoO) resetPipeline(at int64) {
	for i := range m.regReady {
		if m.regReady[i] > at {
			m.regReady[i] = at
		}
	}
	for k := range m.storeDone {
		delete(m.storeDone, k)
	}
}

// Finish returns the accumulated timing result.
func (m *OoO) Finish() Result {
	r := m.res
	r.Cycles = m.ret.last + 1
	m.fs.result(&r)
	m.fc.result(&r)
	r.ICacheMisses = m.hier.I.Misses
	r.DCacheMisses = m.hier.D[0].Misses
	r.L2Misses = m.hier.L2.Misses
	return r
}
