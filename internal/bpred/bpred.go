// Package bpred implements the branch prediction structures of Table 1: a
// g-share conditional predictor (16K entries, 12-bit global history), a
// 512-entry 4-way set-associative branch target buffer, and an 8-entry
// hardware return address stack. The co-designed dual-address RAS is
// architectural and lives in the VM; the timing models consume its hit/miss
// outcomes from the trace.
package bpred

// GShare is a global-history XOR-indexed table of 2-bit saturating
// counters.
type GShare struct {
	table   []uint8
	history uint32
	bits    uint
	mask    uint32

	Lookups     uint64
	Mispredicts uint64
}

// NewGShare builds a predictor with the given table size (entries, a power
// of two) and history length in bits.
func NewGShare(entries int, historyBits uint) *GShare {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic("bpred: gshare entries must be a power of two")
	}
	g := &GShare{
		table: make([]uint8, entries),
		bits:  historyBits,
		mask:  uint32(entries - 1),
	}
	for i := range g.table {
		g.table[i] = 1 // weakly not-taken
	}
	return g
}

// DefaultGShare returns the paper's 16K-entry, 12-bit-history predictor.
func DefaultGShare() *GShare { return NewGShare(16384, 12) }

func (g *GShare) index(pc uint64) uint32 {
	return (uint32(pc>>2) ^ (g.history & ((1 << g.bits) - 1))) & g.mask
}

// Predict returns the predicted direction for the branch at pc without
// updating any state.
func (g *GShare) Predict(pc uint64) bool {
	return g.table[g.index(pc)] >= 2
}

// Update records the actual outcome, trains the counter, and shifts the
// global history. It returns whether the pre-update prediction was
// correct.
func (g *GShare) Update(pc uint64, taken bool) bool {
	idx := g.index(pc)
	pred := g.table[idx] >= 2
	if taken && g.table[idx] < 3 {
		g.table[idx]++
	} else if !taken && g.table[idx] > 0 {
		g.table[idx]--
	}
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.Lookups++
	correct := pred == taken
	if !correct {
		g.Mispredicts++
	}
	return correct
}

// BTB is a set-associative branch target buffer with LRU replacement.
type BTB struct {
	setMask uint64 // sets-1; the set count is a power of two
	ways    int
	entries []btbEntry // sets*ways

	Lookups uint64
	Hits    uint64
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// NewBTB builds a BTB with the given total entries and associativity.
func NewBTB(entries, ways int) *BTB {
	if entries%ways != 0 {
		panic("bpred: BTB entries must divide by ways")
	}
	sets := entries / ways
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("bpred: BTB set count must be a power of two")
	}
	return &BTB{setMask: uint64(sets - 1), ways: ways, entries: make([]btbEntry, entries)}
}

// DefaultBTB returns the paper's 512-entry, 4-way BTB.
func DefaultBTB() *BTB { return NewBTB(512, 4) }

func (b *BTB) set(pc uint64) []btbEntry {
	s := int(pc >> 2 & b.setMask)
	return b.entries[s*b.ways : (s+1)*b.ways]
}

// Predict returns the predicted target for the control instruction at pc.
func (b *BTB) Predict(pc uint64) (uint64, bool) {
	b.Lookups++
	set := b.set(pc)
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			b.Hits++
			return set[i].target, true
		}
	}
	return 0, false
}

// Update installs or refreshes the target for pc. clock orders LRU.
func (b *BTB) Update(pc, target uint64, clock uint64) {
	set := b.set(pc)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			set[i].target = target
			set[i].lru = clock
			return
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = btbEntry{valid: true, tag: pc, target: target, lru: clock}
}

// RAS is a conventional hardware return address stack (circular,
// overwrite on overflow).
type RAS struct {
	buf []uint64
	top int
	n   int
}

// NewRAS builds a RAS with the given depth.
func NewRAS(depth int) *RAS { return &RAS{buf: make([]uint64, depth)} }

// DefaultRAS returns the paper's 8-entry RAS.
func DefaultRAS() *RAS { return NewRAS(8) }

// Push records a return address.
func (r *RAS) Push(addr uint64) {
	r.buf[r.top] = addr
	r.top = (r.top + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// Pop predicts the next return target; ok is false when empty.
func (r *RAS) Pop() (uint64, bool) {
	if r.n == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.buf)) % len(r.buf)
	r.n--
	return r.buf[r.top], true
}
