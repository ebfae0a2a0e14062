package uarch

import (
	"github.com/ildp/accdbt/internal/cachesim"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/trace"
)

// ILDP is the accumulator-steered distributed microarchitecture timing
// model: a shared pipelined front-end feeds 4/6/8 processing elements,
// each an in-order issue FIFO with a local accumulator, a local copy of
// the GPRs, and (optionally) a replicated L1 data cache. Instructions are
// steered by accumulator number; inter-strand values communicated through
// GPRs pay the global wire latency when produced in a different PE.
// It implements trace.Sink.
type ILDP struct {
	cfg  Config
	hier *cachesim.Hierarchy
	fe   *frontEnd

	// Per-GPR readiness plus the PE that produced the value (for the
	// communication latency).
	gprReady [numGPRTrack]int64
	gprPE    [numGPRTrack]int8

	// Per-accumulator strand state: the PE its current strand occupies,
	// the completion cycle of the last value, and the issue horizon of the
	// strand occupying the logical accumulator (a new strand cannot rebind
	// the accumulator while the previous one is still issuing — the
	// structural hazard that makes more logical accumulators valuable).
	accPE    [numAccTrack]int8
	accReady [numAccTrack]int64
	accBusy  [numAccTrack]int64

	pes     []peState
	steerRR int

	// Retirement (shared ROB): the retire cycle of the last ROB entries,
	// a ring whose next slot holds the oldest.
	rob     []int64
	robSlot int
	ret     retireBW

	storeDone map[uint64]int64

	// prof, when non-nil, receives every record's PE and retire cycle
	// for cycle attribution (nil = profiling disabled).
	prof *prof.Profiler

	res Result
}

// peState is one processing element: its issue FIFO and its L1 data
// cache (its own replica, or the shared one).
type peState struct {
	lastIssue int64   // last issue cycle (1 issue per PE per cycle)
	fifo      []int64 // ring of issue cycles for FIFO occupancy
	fifoSlot  int     // next FIFO ring slot, which holds the oldest entry
	dcache    *cachesim.Cache
	insts     uint64 // distribution statistics
}

// SetProfiler attaches an execution profiler fed with per-record retire
// timing. A nil profiler disables the feed.
func (m *ILDP) SetProfiler(p *prof.Profiler) { m.prof = p }

// NewILDP builds an ILDP model with the given configuration. Zero
// machine parameters take their Table 1 values (see Config.withDefaults).
func NewILDP(cfg Config) *ILDP {
	cfg = cfg.withDefaults()
	hier := cachesim.NewHierarchy(cfg.CacheOpts)
	m := &ILDP{
		cfg:       cfg,
		hier:      hier,
		fe:        newFrontEnd(&cfg, hier.I),
		pes:       make([]peState, cfg.PEs),
		rob:       make([]int64, cfg.ROB),
		storeDone: map[uint64]int64{},
	}
	for i := range m.pes {
		m.pes[i].fifo = make([]int64, cfg.FIFODepth)
		m.pes[i].dcache = hier.D[i%len(hier.D)]
	}
	for i := range m.accPE {
		m.accPE[i] = -1
	}
	for i := range m.gprPE {
		m.gprPE[i] = -1
	}
	return m
}

// steer picks the processing element for an instruction: accumulator-based
// steering (§1.1) with dependence-aware placement of new strands — a
// strand whose first input is a GPR value follows that value's producer
// onto its PE, so inter-strand chains avoid the global wire latency; this
// is what lets the hierarchical ISA tolerate communication delay (§5).
// Strands with no live GPR input round-robin across PEs.
func (m *ILDP) steer(rec *trace.Rec) int {
	acc := rec.DstAcc
	if acc == trace.NoAcc {
		acc = rec.SrcAcc
	}
	if acc != trace.NoAcc {
		readsAcc := rec.SrcAcc != trace.NoAcc
		if !readsAcc || m.accPE[acc] < 0 {
			m.accPE[acc] = int8(m.newStrandPE(rec))
		}
		return int(m.accPE[acc])
	}
	// Accumulator-free instructions (GPR-only stores, saves, branches on
	// GPRs) follow their producer when it is still hot, else round-robin.
	return m.newStrandPE(rec)
}

// newStrandPE places a strand start: on the PE of a still-hot GPR source
// value when there is one, else round-robin.
func (m *ILDP) newStrandPE(rec *trace.Rec) int {
	for _, r := range rec.SrcReg {
		if r == trace.NoReg {
			continue
		}
		idx := gprIdx(r)
		if m.gprPE[idx] >= 0 && m.gprReady[idx]+m.cfg.CommLat > m.pes[m.gprPE[idx]].lastIssue {
			return int(m.gprPE[idx])
		}
	}
	pe := m.steerRR
	if m.steerRR++; m.steerRR == len(m.pes) {
		m.steerRR = 0
	}
	return pe
}

// Append implements trace.Sink: schedule one committed instruction.
func (m *ILDP) Append(rec trace.Rec) { m.schedule(&rec) }

// AppendBatch implements trace.BatchSink: Append each record in order.
func (m *ILDP) AppendBatch(recs []trace.Rec) {
	for i := range recs {
		m.schedule(&recs[i])
	}
}

// schedule times one committed instruction for Append and AppendBatch.
func (m *ILDP) schedule(rec *trace.Rec) {
	fc := m.fe.fetch(rec)
	pe := m.steer(rec)
	p := &m.pes[pe]
	p.insts++

	// Rename/dispatch one stage after fetch; ROB and FIFO occupancy. A
	// ring slot not yet written holds cycle 0, and disp >= 1, so it
	// never delays dispatch.
	disp := fc + 1
	if oldest := m.rob[m.robSlot]; oldest+1 > disp {
		disp = oldest + 1
	}
	// The target FIFO must have a free slot: it drains one per issue.
	if old := p.fifo[p.fifoSlot]; old+1 > disp {
		disp = old + 1
	}
	// A strand start rebinds its logical accumulator: it must wait until
	// the previous strand holding the accumulator has drained its FIFO.
	if rec.DstAcc != trace.NoAcc && rec.SrcAcc == trace.NoAcc {
		if m.accBusy[rec.DstAcc] > disp {
			disp = m.accBusy[rec.DstAcc]
		}
	}

	// Operand readiness: accumulator values stay inside the PE;
	// GPR values pay the global communication latency when produced
	// elsewhere.
	ready := disp
	if rec.SrcAcc != trace.NoAcc {
		if t := m.accReady[rec.SrcAcc]; t > ready {
			ready = t
		}
	}
	for _, r := range rec.SrcReg {
		if r == trace.NoReg {
			continue
		}
		t := m.gprReady[gprIdx(r)]
		if m.gprPE[gprIdx(r)] >= 0 && int(m.gprPE[gprIdx(r)]) != pe {
			t += m.cfg.CommLat
		}
		if t > ready {
			ready = t
		}
	}

	// In-order issue from the PE's FIFO head: one per cycle, head-blocking.
	issue := ready
	if issue <= p.lastIssue {
		issue = p.lastIssue + 1
	}
	p.lastIssue = issue
	p.fifo[p.fifoSlot] = issue
	if p.fifoSlot++; p.fifoSlot == len(p.fifo) {
		p.fifoSlot = 0
	}

	var done int64
	switch rec.Class {
	case trace.ClassNop:
		done = issue
	case trace.ClassLoad:
		lat := p.dcache.Access(rec.MemAddr, false)
		m.res.DCacheStall += lat - 2
		done = issue + lat
		if sd, ok := m.storeDone[rec.MemAddr>>3]; ok && sd > done {
			done = sd
		}
	case trace.ClassStore:
		p.dcache.Access(rec.MemAddr, true)
		done = issue + 1
		m.storeDone[rec.MemAddr>>3] = done
	case trace.ClassMul:
		done = issue + m.cfg.MulLat
	default:
		done = issue + 1
	}

	if rec.DstAcc != trace.NoAcc {
		m.accReady[rec.DstAcc] = done
		m.accPE[rec.DstAcc] = int8(pe)
	}
	// The logical accumulator's rename binding is held until this
	// instruction has entered its FIFO; a later strand reusing the name
	// stalls at dispatch until then.
	acc := rec.DstAcc
	if acc == trace.NoAcc {
		acc = rec.SrcAcc
	}
	if acc != trace.NoAcc {
		hold := disp + 1
		if issue-disp > 4 {
			// A deeply-stalled strand also delays rename reuse: the
			// steering table entry cannot be reassigned while the strand
			// head is blocking its FIFO.
			hold = issue - 3
		}
		if hold > m.accBusy[acc] {
			m.accBusy[acc] = hold
		}
	}
	if rec.DstReg != trace.NoReg {
		if rec.DstOperational {
			m.gprReady[gprIdx(rec.DstReg)] = done
			m.gprPE[gprIdx(rec.DstReg)] = int8(pe)
		}
		// Architected-state-only writes (Modified form) go to the shadow
		// file off the critical path and never feed the pipeline.
	}

	// In-order retirement.
	ret := m.ret.retire(done, m.cfg.Width)
	m.rob[m.robSlot] = ret
	if m.robSlot++; m.robSlot == len(m.rob) {
		m.robSlot = 0
	}

	m.prof.Retire(pe, ret, profAcc(rec))

	m.res.Insts++
	m.res.VInsts += uint64(rec.VCredit)
	if rec.IsBranch() {
		if isEndOfRun(rec) {
			m.res.Episodes++
			m.fe.drain(ret + 1)
			m.resetPipeline(ret)
			return
		}
		m.fe.resolve(rec, fc, done)
	}
}

func (m *ILDP) resetPipeline(at int64) {
	for i := range m.gprReady {
		if m.gprReady[i] > at {
			m.gprReady[i] = at
		}
	}
	for i := range m.accReady {
		if m.accReady[i] > at {
			m.accReady[i] = at
		}
		if m.accBusy[i] > at {
			m.accBusy[i] = at
		}
		m.accPE[i] = -1
	}
	for i := range m.pes {
		if m.pes[i].lastIssue > at {
			m.pes[i].lastIssue = at
		}
	}
	for k := range m.storeDone {
		delete(m.storeDone, k)
	}
}

// PEDistribution returns the fraction of instructions steered to each PE.
func (m *ILDP) PEDistribution() []float64 {
	total := uint64(0)
	for i := range m.pes {
		total += m.pes[i].insts
	}
	out := make([]float64, len(m.pes))
	if total == 0 {
		return out
	}
	for i := range m.pes {
		out[i] = float64(m.pes[i].insts) / float64(total)
	}
	return out
}

// Finish returns the accumulated timing result.
func (m *ILDP) Finish() Result {
	r := m.res
	r.Cycles = m.ret.last + 1
	r.CondMispredicts = m.fe.condMiss
	r.TargetMispredicts = m.fe.targetMiss
	r.Misfetches = m.fe.misfetches
	r.Branches = m.fe.branches
	r.ICacheMisses = m.hier.I.Misses
	for _, d := range m.hier.D {
		r.DCacheMisses += d.Misses
	}
	r.L2Misses = m.hier.L2.Misses
	r.ICacheStall = m.fe.icacheStall
	r.RedirectLoss = m.fe.redirectLoss
	return r
}
