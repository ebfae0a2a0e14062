// Package prof is the cycle-level execution tracer and hot-fragment
// profiler of the reproduction. The VM reports frame transitions
// (fragment entered/left, shared dispatch entered, translation,
// eviction) and chain-transition verdicts (software-prediction and
// dual-RAS hits/misses, dispatch-table runs), while the timing models
// report every retired record with its processing element and retire
// cycle. From those two feeds the profiler maintains:
//
//   - a cycle-exact attribution of the run's total cycles to fragments,
//     the shared dispatch routine, and non-translated execution (the
//     deltas between consecutive retire cycles are charged to whichever
//     frame is active, so per-frame cycle totals always sum to the
//     timing model's total cycle count);
//   - per-fragment aggregates: entries, I-/V-instructions, cycle spans,
//     exit-reason and chain-kind breakdowns, per-accumulator (strand)
//     cycles, and per-PE instruction occupancy; and
//   - a bounded ring buffer of timestamped events for timeline export
//     (Chrome trace-event / Perfetto JSON and folded flamegraph stacks),
//     with optional activation sampling so tracing stays cheap on long
//     runs.
//
// A nil *Profiler is a valid "profiling disabled" profiler: every hook
// is a no-op, so instrumented code attaches one unconditionally.
// Profiling never changes simulation results — the profiler only
// observes the VM and timing models. A Profiler belongs to one run (one
// VM plus its sink); it is not safe for concurrent use.
package prof

import (
	"github.com/ildp/accdbt/internal/metrics"
)

// ChainKind classifies a fragment-to-fragment (or fragment-to-dispatch)
// control transfer, mirroring the paper's chaining schemes (§4.3).
type ChainKind uint8

const (
	// ChainDirect is a patched direct branch between fragments (§3.2).
	ChainDirect ChainKind = iota
	// ChainSWPredHit / Miss are software jump-prediction verdicts: a hit
	// falls through inside the fragment, a miss enters dispatch.
	ChainSWPredHit
	ChainSWPredMiss
	// ChainRASHit / Miss are dual-address return-address-stack verdicts.
	ChainRASHit
	ChainRASMiss
	// ChainDispatchHit / Miss are dispatch-table lookups: a hit enters
	// the found fragment, a miss exits to the VM.
	ChainDispatchHit
	ChainDispatchMiss

	numChainKinds = int(ChainDispatchMiss) + 1
)

var chainKindNames = [numChainKinds]string{
	"direct", "sw_pred.hit", "sw_pred.miss", "ras.hit", "ras.miss",
	"dispatch.hit", "dispatch.miss",
}

// String returns the lower-case chain-kind name.
func (k ChainKind) String() string {
	if int(k) < len(chainKindNames) {
		return chainKindNames[k]
	}
	return "chain?"
}

// ExitKind classifies how a frame activation ended.
type ExitKind uint8

const (
	// ExitChain left via a chained transfer into another fragment.
	ExitChain ExitKind = iota
	// ExitDispatch entered the shared dispatch routine.
	ExitDispatch
	// ExitVM returned control to the VM (call-translator exit or
	// dispatch miss).
	ExitVM
	// ExitTrap aborted on a precise trap.
	ExitTrap
	// ExitRecover was cut short by a recovery episode: an injected or
	// detected fault at a fragment entry sent control to the recovery
	// pseudo-frame instead of the next fragment.
	ExitRecover
	// ExitPreempt was cut short by a preemption: a deadline/stop request
	// or budget exhaustion stopped the run at a V-instruction boundary.
	ExitPreempt

	numExitKinds = int(ExitPreempt) + 1
)

var exitKindNames = [numExitKinds]string{"chain", "dispatch", "vm", "trap", "recover", "preempt"}

// String returns the lower-case exit-kind name.
func (k ExitKind) String() string {
	if int(k) < len(exitKindNames) {
		return exitKindNames[k]
	}
	return "exit?"
}

// Pseudo-frame keys. Real fragments are keyed by their V-ISA start
// address, which is always far above these values.
const (
	// KeyDispatch aggregates cycles spent in the shared dispatch routine.
	KeyDispatch uint64 = 1
	// KeyVM aggregates cycles retired outside any fragment (the
	// interpreted stream of the no-DBT baseline).
	KeyVM uint64 = 2
	// KeyRecovery aggregates cycles (and spans) attributed to recovery
	// episodes — fragment invalidation, retranslation backoff, and
	// interpreter fallback after an injected or detected fault. Recovery
	// work is modelled in Alpha instructions (vm.Stats.RecoveryCost), so
	// this frame usually carries entries but few cycles; it exists so the
	// cycle-conservation invariant holds across recoveries.
	KeyRecovery uint64 = 3
	// KeyPreempt aggregates preemption boundaries: a deadline/stop
	// request or budget exhaustion stopping the run. Like recovery it
	// usually carries entries but few cycles — it exists so cycle
	// conservation holds across preempted (and later resumed) runs.
	KeyPreempt uint64 = 4
)

// numAccSlots is 8 accumulators plus one slot for acc-less instructions.
const (
	numAccSlots = 9
	accNone     = numAccSlots - 1
)

// FragInfo is the static shape of a fragment, registered on first entry.
type FragInfo struct {
	Insts        int  // I-instructions in the fragment
	SrcInsts     int  // V-ISA instructions translated
	Strands      int  // strands formed (0 for straightened code)
	MaxStrand    int  // longest strand in instructions
	Straightened bool // straightened-Alpha fragment
}

// FragAgg is the running aggregate for one frame (fragment or pseudo).
type FragAgg struct {
	ID     int32 // latest fragment ID seen for this V-start
	VStart uint64
	Info   FragInfo

	Entries uint64
	Cycles  int64  // retire-cycle deltas attributed while active
	IInsts  uint64 // I-instructions executed while active
	VInsts  uint64 // V-ISA instructions retired while active

	Exits  [numExitKinds]uint64
	Chains [numChainKinds]uint64 // chain verdicts observed while active

	// AccCycles attributes the frame's cycles to the accumulator
	// (strand) of each retiring instruction; the last slot collects
	// accumulator-less instructions.
	AccCycles [numAccSlots]int64

	// PEInsts counts instructions retired per processing element while
	// this frame was active (grown on demand).
	PEInsts []uint64

	SpanMin, SpanMax int64 // shortest / longest activation in cycles
}

// EvKind identifies a ring-buffer event.
type EvKind uint8

const (
	EvEnter     EvKind = iota // fragment activation begins; Arg = entry chain kind (-1 at episode start)
	EvExit                    // frame activation ends; Arg = ExitKind
	EvChain                   // chain verdict; Arg = ChainKind
	EvTranslate               // superblock translated; Arg = cost work units
	EvEvict                   // fragment evicted on a cache flush
	EvPESample                // per-PE instruction count since the frame opened; Arg = count
	EvStoreHit                // superblock satisfied from the shared fragment store; Arg = 1 if shared
)

var evKindNames = [...]string{"enter", "exit", "chain", "translate", "evict", "pe_sample",
	"store_hit"}

// String returns the lower-case event-kind name.
func (k EvKind) String() string {
	if int(k) < len(evKindNames) {
		return evKindNames[k]
	}
	return "ev?"
}

// Event is one timestamped trace event in the ring buffer.
type Event struct {
	Kind   EvKind
	TS     int64 // retire-cycle clock at emission
	Frag   int32 // fragment ID (-1 for dispatch, -2 for the VM frame)
	PE     int16 // processing element (EvPESample), else -1
	VStart uint64
	Arg    int64
}

// Frame IDs used in ring events for pseudo-frames.
const (
	FrameDispatch int32 = -1
	FrameVM       int32 = -2
	FrameRecovery int32 = -3
	FramePreempt  int32 = -4
)

// Config sizes the profiler.
type Config struct {
	// Capacity bounds the event ring buffer (default 65536 events).
	Capacity int
	// SampleEvery records ring events for every Nth frame activation
	// (default 1 = all). Aggregation is always exact regardless of the
	// sampling rate, and sampling is deterministic: it depends only on
	// the activation count, never on time.
	SampleEvery int
}

// Profiler collects execution traces and fragment profiles. See the
// package comment for the data it maintains; construct with New.
type Profiler struct {
	cfg Config

	// clock is the last retire cycle seen from the timing model; -1
	// before the first record so that attributing deltas over the whole
	// run sums exactly to the model's Cycles (= lastRetire + 1).
	clock int64

	frames map[uint64]*FragAgg
	cur    *FragAgg // active frame (nil before the first enter)
	curTS  int64    // clock at activation start

	pendingExit  ExitKind // exit reason for the current frame when the next enter closes it
	pendingChain int64    // chain kind that will lead into the next frame (-1 none)

	// iBase / vBase are the VM's translated I-/V-instruction totals at
	// the current activation's start; deltas flush to the closing frame.
	iBase, vBase uint64

	activations uint64
	armed       bool // ring events recorded for the current activation

	// peSince counts per-PE instructions retired during the current
	// activation (flushed to ring PE samples and the frame aggregate at
	// close).
	peSince []uint64

	// spanHist feeds p50/p95/p99 activation-span summaries.
	spanHist *metrics.Histogram

	// ring buffer
	ring   []Event
	pushed uint64 // total events ever pushed

	retires  uint64 // records seen from the timing model
	finished bool
}

// New returns an enabled profiler.
func New(cfg Config) *Profiler {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1 << 16
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	return &Profiler{
		cfg:          cfg,
		clock:        -1,
		frames:       map[uint64]*FragAgg{},
		pendingChain: -1,
		spanHist:     metrics.NewHistogram(),
	}
}

// Enabled reports whether the profiler collects anything.
func (p *Profiler) Enabled() bool { return p != nil }

func (p *Profiler) push(e Event) {
	if e.TS < 0 {
		e.TS = 0 // the clock is -1 until the first record retires
	}
	if len(p.ring) < p.cfg.Capacity {
		p.ring = append(p.ring, e)
	} else {
		p.ring[p.pushed%uint64(p.cfg.Capacity)] = e
	}
	p.pushed++
}

// Events returns the retained ring events oldest-first.
func (p *Profiler) Events() []Event {
	if p == nil || p.pushed == 0 {
		return nil
	}
	out := make([]Event, 0, len(p.ring))
	if p.pushed <= uint64(len(p.ring)) {
		return append(out, p.ring...)
	}
	head := int(p.pushed % uint64(len(p.ring)))
	out = append(out, p.ring[head:]...)
	return append(out, p.ring[:head]...)
}

// EventsRecorded returns how many events were pushed into the ring, and
// EventsDropped how many of those the bounded ring has overwritten.
func (p *Profiler) EventsRecorded() uint64 {
	if p == nil {
		return 0
	}
	return p.pushed
}

// EventsDropped returns the number of events overwritten by the ring.
func (p *Profiler) EventsDropped() uint64 {
	if p == nil || p.pushed <= uint64(len(p.ring)) {
		return 0
	}
	return p.pushed - uint64(len(p.ring))
}

// frame returns (creating if needed) the aggregate for a frame key: a
// fragment's V-start, or a pseudo-frame's key.
func (p *Profiler) frame(key uint64, id int32) *FragAgg {
	f := p.frames[key]
	if f == nil {
		f = &FragAgg{ID: id, VStart: key}
		p.frames[key] = f
	}
	f.ID = id // fragment IDs restart after a cache flush; keep the latest
	return f
}

// closeFrame ends the current activation with the given reason.
func (p *Profiler) closeFrame(reason ExitKind, iTotal, vTotal uint64) {
	f := p.cur
	if f == nil {
		return
	}
	f.Exits[reason]++
	span := p.clock - p.curTS
	if span < 0 {
		span = 0
	}
	if f.Entries == 1 || span < f.SpanMin {
		f.SpanMin = span
	}
	if span > f.SpanMax {
		f.SpanMax = span
	}
	p.spanHist.Observe(float64(span))
	p.flushIVTotals(iTotal, vTotal)
	if p.armed {
		frag := f.ID
		if f.VStart == KeyDispatch {
			frag = FrameDispatch
		} else if f.VStart == KeyVM {
			frag = FrameVM
		} else if f.VStart == KeyRecovery {
			frag = FrameRecovery
		} else if f.VStart == KeyPreempt {
			frag = FramePreempt
		}
		for pe, n := range p.peSince {
			if n != 0 {
				p.push(Event{Kind: EvPESample, TS: p.clock, Frag: frag,
					VStart: f.VStart, PE: int16(pe), Arg: int64(n)})
			}
		}
		p.push(Event{Kind: EvExit, TS: p.clock, Frag: frag, VStart: f.VStart,
			Arg: int64(reason)})
	}
	for pe := range p.peSince {
		p.peSince[pe] = 0
	}
	p.cur = nil
}

func (p *Profiler) flushIVTotals(iTotal, vTotal uint64) {
	if p.cur == nil {
		return
	}
	if iTotal >= p.iBase {
		p.cur.IInsts += iTotal - p.iBase
	}
	if vTotal >= p.vBase {
		p.cur.VInsts += vTotal - p.vBase
	}
	p.iBase, p.vBase = iTotal, vTotal
}

// enter closes the open frame with reason and starts an activation of
// frame id keyed by key (a fragment's V-start, or a pseudo-frame's
// key), recording the entry event when the activation is sampled. It is
// the one body behind FragEnter and the pseudo-frame openers.
func (p *Profiler) enter(reason ExitKind, id int32, key uint64, iTotal, vTotal uint64) *FragAgg {
	entryChain := p.pendingChain
	p.pendingChain = -1
	p.closeFrame(reason, iTotal, vTotal)
	p.pendingExit = ExitChain
	f := p.frame(key, id)
	f.Entries++
	p.cur = f
	p.curTS = p.clock
	p.iBase, p.vBase = iTotal, vTotal
	p.activations++
	p.armed = (p.activations-1)%uint64(p.cfg.SampleEvery) == 0
	if p.armed {
		p.push(Event{Kind: EvEnter, TS: p.clock, Frag: id, VStart: key, Arg: entryChain, PE: -1})
	}
	return f
}

// FragEnter begins an activation of fragment id at vstart. info is the
// fragment's static shape (cheap to recompute; retained on first entry).
// iTotal/vTotal are the VM's running translated I- and V-instruction
// totals, used to attribute instruction deltas to the closing frame.
func (p *Profiler) FragEnter(id int32, vstart uint64, info FragInfo, iTotal, vTotal uint64) {
	if p == nil {
		return
	}
	if f := p.enter(p.pendingExit, id, vstart, iTotal, vTotal); f.Info == (FragInfo{}) {
		f.Info = info
	}
}

// EnterDispatch begins an activation of the shared dispatch routine; the
// current fragment's activation closes with an ExitDispatch reason.
func (p *Profiler) EnterDispatch(iTotal, vTotal uint64) {
	if p != nil {
		p.enter(ExitDispatch, FrameDispatch, KeyDispatch, iTotal, vTotal)
	}
}

// EnterRecovery begins an activation of the recovery pseudo-frame: the
// current fragment's activation (if any) closes with an ExitRecover
// reason, and cycles retired until the next fragment entry are
// attributed to recovery, keeping the conservation invariant intact.
func (p *Profiler) EnterRecovery(iTotal, vTotal uint64) {
	if p != nil {
		p.enter(ExitRecover, FrameRecovery, KeyRecovery, iTotal, vTotal)
	}
}

// Preempt begins an activation of the preempt pseudo-frame: the current
// frame (fragment, dispatch, or recovery) closes with an ExitPreempt
// reason, and any cycles retired between the stop decision and Finish
// are attributed to preemption, keeping the conservation invariant
// intact. Finish closes the frame with ExitPreempt rather than
// ExitTrap, so a preempted run is distinguishable from a crashed one.
func (p *Profiler) Preempt(iTotal, vTotal uint64) {
	if p != nil {
		p.enter(ExitPreempt, FramePreempt, KeyPreempt, iTotal, vTotal)
	}
}

// Resume closes a dangling preempt frame after a checkpoint restore, so
// a profiler that outlives the preemption (same-VM resume) re-opens
// cleanly at the next fragment entry. A no-op unless the preempt frame
// is the open frame.
func (p *Profiler) Resume(iTotal, vTotal uint64) {
	if p == nil {
		return
	}
	if p.cur != nil && p.cur.VStart == KeyPreempt {
		p.pendingChain = -1
		p.closeFrame(ExitPreempt, iTotal, vTotal)
		p.pendingExit = ExitChain
	}
}

// FragExit ends the current activation and returns control to the VM.
// When the open frame is the recovery pseudo-frame the call is a no-op:
// a recovery episode outlives the translated-code activation it cut
// short and closes only at the next frame entry (or Finish), so the
// exit-to-VM path that follows a mid-episode recovery leaves it open.
func (p *Profiler) FragExit(reason ExitKind, iTotal, vTotal uint64) {
	if p == nil {
		return
	}
	if p.cur != nil && p.cur.VStart == KeyRecovery {
		return
	}
	p.pendingChain = -1
	p.closeFrame(reason, iTotal, vTotal)
	p.pendingExit = ExitChain
}

// Chain records a chain-transition verdict on the current frame. For
// transitions that enter another frame the VM calls Chain first, then
// FragEnter / EnterDispatch; the kind is also attached to the next
// enter event as the edge label.
func (p *Profiler) Chain(kind ChainKind) {
	if p == nil {
		return
	}
	if p.cur != nil {
		p.cur.Chains[kind]++
	}
	p.pendingChain = int64(kind)
	if p.armed {
		frag := int32(-1)
		var vstart uint64
		if p.cur != nil {
			frag = p.cur.ID
			vstart = p.cur.VStart
		}
		p.push(Event{Kind: EvChain, TS: p.clock, Frag: frag, VStart: vstart,
			Arg: int64(kind), PE: -1})
	}
}

// Translate records a superblock translation (always ring-recorded;
// translations are rare).
func (p *Profiler) Translate(vstart uint64, cost int64) {
	if p == nil {
		return
	}
	p.push(Event{Kind: EvTranslate, TS: p.clock, Frag: -1, VStart: vstart, Arg: cost, PE: -1})
}

// StoreHit records a superblock satisfied from the shared fragment
// store instead of being translated (always ring-recorded, like
// translations; shared marks a hit on an artifact some other session
// translated or that was loaded from disk).
func (p *Profiler) StoreHit(vstart uint64, shared bool) {
	if p == nil {
		return
	}
	var arg int64
	if shared {
		arg = 1
	}
	p.push(Event{Kind: EvStoreHit, TS: p.clock, Frag: -1, VStart: vstart, Arg: arg, PE: -1})
}

// Evict records a fragment eviction (cache flush).
func (p *Profiler) Evict(id int32, vstart uint64) {
	if p == nil {
		return
	}
	p.push(Event{Kind: EvEvict, TS: p.clock, Frag: id, VStart: vstart, PE: -1})
}

// Retire is the timing-model feed: one retired record on processing
// element pe with the given retire cycle, tagged with the
// instruction's accumulator (strand), or 0xFF when it has none. The
// delta from the previously seen retire cycle is attributed to the
// active frame, so per-frame cycles always sum to total cycles. The
// timing models call it on every record, so it is small enough to
// inline: an unprofiled model pays the nil check and no call.
func (p *Profiler) Retire(pe int, retire int64, acc uint8) {
	if p != nil {
		p.retire(pe, retire, acc)
	}
}

func (p *Profiler) retire(pe int, retire int64, acc uint8) {
	p.retires++
	delta := retire - p.clock
	if delta < 0 {
		delta = 0
	}
	p.clock = retire

	f := p.cur
	if f == nil {
		// Records outside any fragment: the interpreted stream of the
		// no-DBT baseline, charged to the VM pseudo-frame.
		f = p.frame(KeyVM, FrameVM)
		if f.Entries == 0 {
			f.Entries = 1
		}
	}
	f.Cycles += delta
	slot := accNone
	if acc < accNone {
		slot = int(acc)
	}
	f.AccCycles[slot] += delta
	for pe >= len(f.PEInsts) {
		f.PEInsts = append(f.PEInsts, 0)
	}
	f.PEInsts[pe]++
	for pe >= len(p.peSince) {
		p.peSince = append(p.peSince, 0)
	}
	p.peSince[pe]++
}

// Finish closes any dangling activation (a trap or budget exhaustion can
// end a run mid-fragment). Idempotent.
func (p *Profiler) Finish() {
	if p == nil || p.finished {
		return
	}
	p.finished = true
	if p.cur != nil {
		reason := ExitTrap
		if p.cur.VStart == KeyPreempt {
			reason = ExitPreempt
		}
		p.closeFrame(reason, p.iBase, p.vBase)
	}
}

// Clock returns the last retire cycle seen (-1 before any record).
func (p *Profiler) Clock() int64 {
	if p == nil {
		return -1
	}
	return p.clock
}

// Retires returns the number of records fed by the timing model.
func (p *Profiler) Retires() uint64 {
	if p == nil {
		return 0
	}
	return p.retires
}

// SpanQuantile returns the q-quantile of fragment activation spans in
// cycles (bucket-interpolated; see metrics.Histogram.Quantile).
func (p *Profiler) SpanQuantile(q float64) float64 {
	if p == nil {
		return 0
	}
	return p.spanHist.Quantile(q)
}
