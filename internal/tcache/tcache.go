// Package tcache implements the translation cache of the co-designed VM:
// fragment storage with I-address layout, the PC translation lookup table,
// fragment linking (patching call-translator exits into direct branches
// once their targets are translated), and the shared dispatch routine.
package tcache

import (
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
)

// Base is the I-address where the translation cache starts; the dispatch
// routine occupies the first bytes.
const Base uint64 = 0x4000_0000

// DispatchLen is the dispatch routine length in instructions, including
// its final indirect jump (§3.2: "The dispatch code takes 20
// instructions").
const DispatchLen = 20

// Fragment is one translated superblock installed in the cache: the
// translator's Result (instructions, PEI and recovery tables, and the
// metadata both fragment checkers read) plus its place in the cache.
// Install aliases the Result's slices, so exit patching edits them in
// place; a checker handed &f.Result sees the installed, possibly
// patched, code.
type Fragment struct {
	translate.Result

	ID int32

	// IAddr is the fragment's base I-address; IAddrs the per-instruction
	// addresses (laid out by encoded size for I-cache modelling).
	IAddr  uint64
	IAddrs []uint64
	Sizes  []uint8

	// tallies[n] counts Insts[:n]; see Tally. ends[n] counts the visits
	// that ended after Insts[:n] since the last fold (see End and
	// Cache.Fold).
	tallies []Tally
	ends    []uint64

	// Recs holds the static half of each instruction's trace record:
	// every field but MemAddr, Taken, Target and PredHit. A VM with a
	// trace sink builds it on its first visit to the fragment; it is
	// nil until then. Exit patching swaps a branch only between kinds
	// of the same trace class (CallTrans and Branch, CallTransCond and
	// CondBranch), so the templates stay valid for the fragment's life.
	Recs []trace.Rec

	// Ops holds the VM executor's resolved form of each instruction: its
	// opcode and its operands as register-file indices. The VM builds it
	// on its first visit to the fragment; it is nil until then. Each
	// patch pair shares one opcode and exit patching changes no operand,
	// so patching never makes it stale; anything else that rewrites
	// Insts must reset it to nil.
	Ops []Op

	// ExecCount counts entries into this fragment.
	ExecCount uint64

	// StoreKey is the content address of the shared fragment-store
	// artifact this fragment was installed from (all zero when the
	// fragment was translated privately, without a store). The key is
	// kept as raw bytes — not a fragstore type — because provenance is
	// the only thing the per-VM cache knows about the store: chain
	// links, patched exits, and shadow copies in this Fragment are
	// private mutations of a cloned instruction stream, never of the
	// store's immutable entry.
	StoreKey [32]byte

	// Shared marks a fragment whose translation was produced by a
	// different session (or loaded from a persisted store) and reached
	// this VM as a shared-store hit.
	Shared bool

	// pristineInsts / pristinePEI are install-time deep copies of the
	// mutable fragment image, maintained when the cache's shadow mode is
	// on (see EnableShadow). Legitimate post-install mutation — exit
	// patching — updates the shadow in lockstep, so any divergence means
	// the installed code was tampered with after install.
	pristineInsts []ildp.Inst
	pristinePEI   []uint64

	// strand statistics, computed lazily for the profiler.
	strandN, strandMax int
	strandsDone        bool
}

// Op is one instruction in the VM executor's resolved form. The
// operands are indices into the executor's register file, whose layout
// the VM defines: A and B are the sources, D the accumulator
// destination and E the GPR destination, with an absent destination
// resolved to a discard slot. Imm holds the immediates of sources A and
// B, which the executor loads into its two immediate slots before the
// instruction runs. An Op holds indices, never pointers, so it belongs
// to no VM.
type Op struct {
	Code       uint8
	A, B, D, E uint8
	Imm        [2]uint64
}

// Tally is what executing a run of I-instructions adds to the VM's
// per-instruction counters. Every visit to a fragment executes a prefix
// of its instructions, so the executor counts one visit end (End)
// instead of counting instruction by instruction.
type Tally struct {
	IInsts, VInsts, Copies uint32
	Class                  [ildp.ClassSpecial + 1]uint32
	Usage                  [ildp.UsageNoUserGlobal + 1]uint32 // UsageNone stays zero
}

// Counts is what executed instructions add to the VM's per-class,
// per-usage and copy counters: the sum of the Tallies of every visit
// folded into it.
type Counts struct {
	Class  [ildp.ClassSpecial + 1]uint64
	Usage  [ildp.UsageNoUserGlobal + 1]uint64
	Copies uint64
}

// add adds k runs of t to c.
func (c *Counts) add(t *Tally, k uint64) {
	for i, n := range t.Class {
		c.Class[i] += k * uint64(n)
	}
	for i, n := range t.Usage {
		c.Usage[i] += k * uint64(n)
	}
	c.Copies += k * uint64(t.Copies)
}

// prefixTallies returns t with t[n] tallying insts[:n].
func prefixTallies(insts []ildp.Inst) []Tally {
	t := make([]Tally, len(insts)+1)
	for i := range insts {
		in, n := &insts[i], t[i]
		n.IInsts++
		n.VInsts += uint32(in.VCredit)
		n.Class[in.Class]++
		if in.Usage != ildp.UsageNone {
			n.Usage[in.Usage]++
		}
		if in.Kind == ildp.KindCopyToGPR || in.Kind == ildp.KindCopyFromGPR {
			n.Copies++
		}
		t[i+1] = n
	}
	return t
}

// Tally returns the counts of Insts[:n], the first n instructions of a
// visit. Installed instructions change only in fields a tally ignores:
// exit patching swaps a branch between its linked and unlinked kinds,
// and injected faults flip operand, address and opcode fields.
func (f *Fragment) Tally(n int) *Tally { return &f.tallies[n] }

// End closes a visit that executed Insts[:n]: it counts the visit end
// and returns the V-instructions Insts[:n] retire. The visit's class,
// usage and copy counts wait in the fragment until Cache.Fold collects
// them. It is small enough to inline.
func (f *Fragment) End(n int) uint32 {
	f.ends[n]++
	return f.tallies[n].VInsts
}

// fold adds the fragment's pending visit ends to c and clears them.
func (f *Fragment) fold(c *Counts) {
	for n, k := range f.ends {
		if k != 0 {
			c.add(&f.tallies[n], k)
			f.ends[n] = 0
		}
	}
}

// snapshotPristine captures the fragment's current instruction stream and
// PEI table as the integrity baseline.
func (f *Fragment) snapshotPristine() {
	f.pristineInsts = append([]ildp.Inst(nil), f.Insts...)
	f.pristinePEI = append([]uint64(nil), f.PEI...)
}

// IntegrityOK compares the installed fragment against its install-time
// pristine copy; any difference — a single flipped bit in any
// instruction field or PEI entry — reports false. Always true when
// shadow mode is off (no baseline to compare against). The comparison is
// the VM's paranoid-mode entry check: unlike the static verifier it
// catches semantics-preserving-looking corruption (immediates,
// displacements) and covers straightened fragments, which carry no
// I-ISA invariants.
func (f *Fragment) IntegrityOK() bool {
	if f.pristineInsts == nil {
		return true
	}
	if len(f.Insts) != len(f.pristineInsts) || len(f.PEI) != len(f.pristinePEI) {
		return false
	}
	for i := range f.Insts {
		if f.Insts[i] != f.pristineInsts[i] {
			return false
		}
	}
	for i := range f.PEI {
		if f.PEI[i] != f.pristinePEI[i] {
			return false
		}
	}
	return true
}

// StrandStats returns the number of strands in the fragment and the
// longest strand's length in instructions (0, 0 for straightened code).
// Computed once and memoized; fragments are immutable after install
// apart from exit-patching, which does not change strand structure.
func (f *Fragment) StrandStats() (n, maxLen int) {
	if !f.strandsDone {
		f.strandsDone = true
		lens := map[int]int{}
		for _, s := range f.Strands {
			if s >= 0 {
				lens[s]++
			}
		}
		f.strandN = len(lens)
		for _, l := range lens {
			if l > f.strandMax {
				f.strandMax = l
			}
		}
	}
	return f.strandN, f.strandMax
}

// Cache is the translation cache. It is unbounded, as in the paper (§4.1:
// SPEC-sized programs fit comfortably; management overhead is negligible).
type Cache struct {
	form      ildp.Form
	frags     []*Fragment
	byVPC     map[uint64]int32
	next      uint64
	pending   map[uint64][]patchSite // V-target -> unlinked exit sites
	dispatch  []ildp.Inst
	dispAddr  []uint64
	dispTally Tally

	// dispEnds counts the dispatch routine's runs since the last Fold,
	// and folded holds the counts of fragments Flush and Invalidate
	// dropped since then.
	dispEnds uint64
	folded   Counts

	// Patches counts call-translator exits converted to direct branches.
	Patches int

	// Invalidates counts single-fragment invalidations (recovery path).
	Invalidates int

	// shadow, when true, keeps a pristine copy of every installed
	// fragment for runtime integrity re-checks (vm paranoid mode).
	shadow bool

	// capacity is the flush threshold in code bytes (0 = unbounded, the
	// paper's configuration); Flushes counts whole-cache flushes.
	capacity int
	// Flushes counts whole-cache flushes triggered by the capacity limit.
	Flushes int

	// reg, when non-nil, receives install/chain/evict lifecycle events
	// and cache-level counters (nil = metrics disabled, zero cost).
	reg *metrics.Registry

	// prof, when non-nil, receives eviction events for the execution
	// tracer (nil = profiling disabled, zero cost).
	prof *prof.Profiler
}

type patchSite struct {
	frag int32
	idx  int
}

// New creates an empty cache for the given ISA form and builds the shared
// dispatch routine.
func New(form ildp.Form) *Cache {
	c := &Cache{
		form:    form,
		byVPC:   map[uint64]int32{},
		pending: map[uint64][]patchSite{},
		next:    Base,
	}
	c.buildDispatch()
	return c
}

// buildDispatch synthesises the 20-instruction shared dispatch routine: a
// hash of the V-ISA target, a two-probe table walk, tag compare, and the
// final register-indirect jump into the predicted fragment. The routine is
// modelled instruction-by-instruction so that fetch, execution bandwidth,
// and the (poorly predictable) final indirect jump cost what they cost on
// both microarchitectures; its table lookup is performed functionally by
// the executor at the final jump.
func (c *Cache) buildDispatch() {
	// 19 work instructions + the final indirect jump.
	ops := []alpha.Op{
		alpha.OpSRL, alpha.OpXOR, alpha.OpAND, alpha.OpSLL, alpha.OpADDQ,
		alpha.OpSRL, alpha.OpXOR, alpha.OpAND, alpha.OpS8ADDQ, alpha.OpADDQ,
		alpha.OpADDQ, alpha.OpXOR, alpha.OpAND, alpha.OpADDQ, alpha.OpSLL,
		alpha.OpADDQ, alpha.OpXOR, alpha.OpBIS, alpha.OpADDQ,
	}
	for _, op := range ops {
		c.dispatch = append(c.dispatch, ildp.Inst{
			Kind: ildp.KindDispatchOp, Op: op,
			SrcA: ildp.GPRSrc(ildp.RegJTarget), SrcB: ildp.ImmSrc(0),
			Acc: 0, Dest: alpha.RegZero, Frag: ildp.NoFrag,
			Class: ildp.ClassChain,
		})
	}
	c.dispatch = append(c.dispatch, ildp.Inst{
		Kind: ildp.KindJumpInd, SrcA: ildp.GPRSrc(ildp.RegJTarget),
		Acc: ildp.NoAcc, Dest: alpha.RegZero, Frag: ildp.NoFrag,
		Class: ildp.ClassChain,
	})
	for i := range c.dispatch {
		c.dispAddr = append(c.dispAddr, c.next)
		c.next += uint64(c.dispatch[i].EncodedSize(c.form))
	}
	c.dispTally = prefixTallies(c.dispatch)[len(c.dispatch)]
	// Round up to a line-ish boundary.
	c.next = (c.next + 63) &^ 63
}

// Dispatch returns the dispatch routine instructions and their I-addresses.
func (c *Cache) Dispatch() ([]ildp.Inst, []uint64) { return c.dispatch, c.dispAddr }

// EndDispatch counts one run of the dispatch routine, which always
// executes in full, like End for a fragment, and returns the run's
// Tally. It is small enough to inline.
func (c *Cache) EndDispatch() *Tally {
	c.dispEnds++
	return &c.dispTally
}

// Fold returns the class, usage and copy counts of every visit and
// dispatch run ended since the last Fold, including those of fragments
// dropped since then, and starts the count again from zero.
func (c *Cache) Fold() Counts {
	out := c.folded
	c.folded = Counts{}
	for _, f := range c.frags {
		if f != nil {
			f.fold(&out)
		}
	}
	out.add(&c.dispTally, c.dispEnds)
	c.dispEnds = 0
	return out
}

// Lookup returns the fragment translated from the given V-ISA address, or
// nil (the PC translation lookup table of Fig. 3).
func (c *Cache) Lookup(vpc uint64) *Fragment {
	if id, ok := c.byVPC[vpc]; ok {
		return c.frags[id]
	}
	return nil
}

// Frag returns a fragment by ID.
func (c *Cache) Frag(id int32) *Fragment {
	if id < 0 || int(id) >= len(c.frags) {
		return nil
	}
	return c.frags[id]
}

// Len returns the number of fragment ID slots, including slots emptied
// by Invalidate; iterate with Frag and skip nil.
func (c *Cache) Len() int { return len(c.frags) }

// Live returns the number of fragments currently installed.
func (c *Cache) Live() int {
	n := 0
	for _, f := range c.frags {
		if f != nil {
			n++
		}
	}
	return n
}

// CodeBytes returns the total encoded bytes of installed fragments.
func (c *Cache) CodeBytes() int {
	n := 0
	for _, f := range c.frags {
		if f != nil {
			n += f.CodeBytes
		}
	}
	return n
}

// Occupancy is a point-in-time summary of the cache's population and
// lifetime management counters, built for the telemetry plane's session
// introspection (DESIGN.md §13). It is a plain value: take it on the
// VM's goroutine (the cache is not safe for concurrent use) and hand it
// to whoever wants it.
type Occupancy struct {
	// Slots is the number of fragment ID slots ever allocated (including
	// slots emptied by Invalidate); Live the fragments currently
	// installed.
	Slots int `json:"slots"`
	Live  int `json:"live"`
	// CodeBytes is the encoded size of installed fragments; Capacity the
	// flush threshold (0 = unbounded).
	CodeBytes int `json:"code_bytes"`
	Capacity  int `json:"capacity,omitempty"`
	// PendingLinks counts exit sites still waiting for their targets to
	// be translated.
	PendingLinks int `json:"pending_links"`
	// Patches, Invalidates, and Flushes are the lifetime counters of the
	// same names.
	Patches     int `json:"patches"`
	Invalidates int `json:"invalidates,omitempty"`
	Flushes     int `json:"flushes,omitempty"`
}

// Occupancy summarises the cache's current population and counters.
func (c *Cache) Occupancy() Occupancy {
	pending := 0
	for _, sites := range c.pending {
		pending += len(sites)
	}
	return Occupancy{
		Slots:        c.Len(),
		Live:         c.Live(),
		CodeBytes:    c.CodeBytes(),
		Capacity:     c.capacity,
		PendingLinks: pending,
		Patches:      c.Patches,
		Invalidates:  c.Invalidates,
		Flushes:      c.Flushes,
	}
}

// SetCapacity sets a code-byte budget; installing past it flushes the
// whole cache first (Dynamo-style preemptive flush, §4.1). Zero restores
// the paper's unbounded configuration.
func (c *Cache) SetCapacity(bytes int) { c.capacity = bytes }

// Capacity returns the current code-byte budget (0 = unbounded).
func (c *Cache) Capacity() int { return c.capacity }

// EnableShadow turns on pristine shadow copies for subsequently
// installed fragments, the baseline for Fragment.IntegrityOK. Costs one
// extra copy of each fragment's instructions and PEI table.
func (c *Cache) EnableShadow() { c.shadow = true }

// SetMetrics attaches a metrics registry; the cache emits install,
// chain, and evict fragment lifecycle events into it. A nil registry
// disables emission (the default).
func (c *Cache) SetMetrics(reg *metrics.Registry) { c.reg = reg }

// SetProfiler attaches an execution profiler; the cache reports
// fragment evictions into it. A nil profiler disables emission.
func (c *Cache) SetProfiler(p *prof.Profiler) { c.prof = p }

// Flush evicts every fragment (the dispatch routine survives). Pending
// links are dropped; the VM re-translates on the next hot trace, which
// also gives sub-optimal early fragments a second chance — the paper notes
// there may be a performance cost in NOT occasionally flushing.
func (c *Cache) Flush() {
	if c.reg != nil {
		for _, f := range c.frags {
			if f == nil {
				continue
			}
			c.reg.Event(metrics.Event{Kind: metrics.EventEvict, Frag: f.ID,
				VStart: f.VStart, CodeBytes: f.CodeBytes, Detail: "capacity flush"})
		}
		c.reg.Counter("tcache.flushes").Inc()
		c.reg.Counter("tcache.evicted_fragments").Add(uint64(c.Live()))
	}
	for _, f := range c.frags {
		if f == nil {
			continue
		}
		f.fold(&c.folded)
		c.prof.Evict(f.ID, f.VStart)
	}
	c.frags = c.frags[:0]
	c.byVPC = map[uint64]int32{}
	c.pending = map[uint64][]patchSite{}
	// Lay new fragments out after the dispatch routine again.
	c.next = c.dispAddr[len(c.dispAddr)-1] + 64
	c.next = (c.next + 63) &^ 63
	c.Flushes++
}

// Reset returns the cache to its post-New state: no fragments, no
// pending links, lifecycle and visit counters zeroed, and the next
// I-address recomputed exactly as construction laid it out. Unlike Flush it emits
// no evict events and counts no flush — it is the cold start of a
// checkpoint restore, where translation state was never architected and
// is simply rebuilt, not evicted.
func (c *Cache) Reset() {
	c.frags = nil
	c.byVPC = map[uint64]int32{}
	c.pending = map[uint64][]patchSite{}
	last := len(c.dispatch) - 1
	c.next = c.dispAddr[last] + uint64(c.dispatch[last].EncodedSize(c.form))
	c.next = (c.next + 63) &^ 63
	c.Patches = 0
	c.Invalidates = 0
	c.Flushes = 0
	c.dispEnds, c.folded = 0, Counts{}
}

// Install places a translation into the cache: it assigns I-addresses,
// links the new fragment's exits against already-translated targets, and
// patches other fragments' pending exits that were waiting for this
// fragment's start address.
func (c *Cache) Install(res *translate.Result) (*Fragment, error) {
	if c.capacity > 0 && c.CodeBytes()+res.CodeBytes > c.capacity && len(c.frags) > 0 {
		c.Flush()
	}
	if _, dup := c.byVPC[res.VStart]; dup {
		return nil, fmt.Errorf("tcache: duplicate fragment for %#x", res.VStart)
	}
	f := &Fragment{
		Result:  *res,
		ID:      int32(len(c.frags)),
		tallies: prefixTallies(res.Insts),
		ends:    make([]uint64, len(res.Insts)+1),
		IAddr:   c.next,
	}
	form := c.form
	for i := range f.Insts {
		size := f.Insts[i].EncodedSize(form)
		if f.Straightened {
			size = alpha.InstBytes
		}
		f.IAddrs = append(f.IAddrs, c.next)
		f.Sizes = append(f.Sizes, uint8(size))
		c.next += uint64(size)
	}
	c.next = (c.next + 63) &^ 63

	c.frags = append(c.frags, f)
	c.byVPC[f.VStart] = f.ID
	c.reg.Event(metrics.Event{Kind: metrics.EventInstall, Frag: f.ID,
		VStart: f.VStart, OutInsts: len(f.Insts), CodeBytes: f.CodeBytes})
	c.reg.Counter("tcache.installs").Inc()
	c.reg.Counter("tcache.code_bytes").Add(uint64(f.CodeBytes))

	// Link this fragment's own exits against existing fragments.
	for i := range f.Insts {
		inst := &f.Insts[i]
		if !inst.IsExit() {
			continue
		}
		if tgt := c.Lookup(inst.VAddr); tgt != nil {
			c.patch(f, i, tgt.ID)
		} else if inst.VAddr != 0 {
			c.pending[inst.VAddr] = append(c.pending[inst.VAddr], patchSite{frag: f.ID, idx: i})
		}
	}

	// Patch pending exits elsewhere that target this fragment.
	for _, site := range c.pending[f.VStart] {
		if g := c.Frag(site.frag); g != nil {
			c.patch(g, site.idx, f.ID)
		}
	}
	delete(c.pending, f.VStart)
	if c.shadow {
		f.snapshotPristine()
	}
	return f, nil
}

// InstallShared installs a translation obtained from the shared
// fragment store, recording its provenance (content address and
// whether the artifact came from another session). res must be a
// private copy of the store's entry (fragstore.CloneForInstall):
// Install aliases res.Insts into the fragment and exit patching
// mutates it in place, which must never touch the store's immutable
// artifact.
func (c *Cache) InstallShared(res *translate.Result, key [32]byte, shared bool) (*Fragment, error) {
	f, err := c.Install(res)
	if err != nil {
		return nil, err
	}
	f.StoreKey = key
	f.Shared = shared
	return f, nil
}

// Invalidate removes a single fragment from the cache (the recovery path
// for corruption detected at runtime): the lookup-table entry is
// dropped, exits in other fragments that were patched to branch directly
// into it revert to call-translator exits (and re-queue as pending
// links, so a retranslation re-chains them), and its own pending links
// are discarded. The ID slot stays allocated — dangling references from
// the dual-address RAS resolve to nil and miss — so fragment IDs remain
// stable. Returns false when id does not name a live fragment.
func (c *Cache) Invalidate(id int32) bool {
	f := c.Frag(id)
	if f == nil {
		return false
	}
	if cur, ok := c.byVPC[f.VStart]; ok && cur == id {
		delete(c.byVPC, f.VStart)
	}
	// Drop pending link sites owned by the dead fragment.
	for v, sites := range c.pending {
		keep := sites[:0]
		for _, s := range sites {
			if s.frag != id {
				keep = append(keep, s)
			}
		}
		if len(keep) == 0 {
			delete(c.pending, v)
		} else {
			c.pending[v] = keep
		}
	}
	// Un-patch direct branches into the dead fragment and re-queue them.
	for _, g := range c.frags {
		if g == nil || g.ID == id {
			continue
		}
		for i := range g.Insts {
			inst := &g.Insts[i]
			if inst.Frag != id {
				continue
			}
			switch inst.Kind {
			case ildp.KindCondBranch:
				inst.Kind = ildp.KindCallTransCond
			case ildp.KindBranch:
				inst.Kind = ildp.KindCallTrans
			default:
				continue
			}
			inst.Frag = ildp.NoFrag
			if g.pristineInsts != nil && i < len(g.pristineInsts) {
				g.pristineInsts[i] = *inst
			}
			c.pending[inst.VAddr] = append(c.pending[inst.VAddr],
				patchSite{frag: g.ID, idx: i})
		}
	}
	f.fold(&c.folded)
	c.frags[id] = nil
	c.Invalidates++
	c.reg.Event(metrics.Event{Kind: metrics.EventEvict, Frag: id,
		VStart: f.VStart, CodeBytes: f.CodeBytes, Detail: "invalidated"})
	c.reg.Counter("tcache.invalidates").Inc()
	c.prof.Evict(id, f.VStart)
	return true
}

// patch converts a call-translator exit into a direct branch to the target
// fragment (§3.2: "the DBT system replaces the call-translator-if-
// condition-is-met instruction with a normal conditional branch").
func (c *Cache) patch(f *Fragment, idx int, target int32) {
	inst := &f.Insts[idx]
	switch inst.Kind {
	case ildp.KindCallTransCond:
		inst.Kind = ildp.KindCondBranch
	case ildp.KindCallTrans:
		inst.Kind = ildp.KindBranch
	case ildp.KindCondBranch, ildp.KindBranch:
		// already patched kind; only the link was missing
	default:
		return
	}
	inst.Frag = target
	if f.pristineInsts != nil && idx < len(f.pristineInsts) {
		// Patching is the one legitimate post-install mutation; keep the
		// integrity baseline in lockstep.
		f.pristineInsts[idx] = *inst
	}
	c.Patches++
	c.reg.Event(metrics.Event{Kind: metrics.EventChain, Frag: f.ID,
		VStart: f.VStart, Detail: fmt.Sprintf("exit %d -> frag %d", idx, target)})
	c.reg.Counter("tcache.patches").Inc()
}
