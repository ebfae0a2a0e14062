package vm

import (
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/translate"
)

// Stats aggregates VM execution statistics.
type Stats struct {
	InterpInsts uint64 // V-ISA instructions interpreted
	TransVInsts uint64 // V-ISA instructions retired in translated code
	TransIInsts uint64 // I-ISA instructions executed in translated code

	ClassCounts [5]uint64 // dynamic I-instructions by ildp.Class
	UsageDyn    [8]uint64 // dynamic producing instructions by usage class

	CopiesExecuted uint64

	FragEntries  uint64
	Exits        uint64 // translated-to-VM transitions
	DispatchRuns uint64
	DispatchHits uint64
	SWPredHits   uint64
	SWPredMisses uint64
	RASHits      uint64
	RASMisses    uint64

	Fragments          int
	FragsVerified      int // fragments proven clean by the static verifier
	FragsProved        int // fragments proved equivalent by the symbolic prover
	SrcInstsTranslated int64
	NOPsRemoved        int64
	BranchElims        int64
	TranslateCost      int64
	StaticCodeBytes    int64
	StaticSrcBytes     int64
	StaticCopies       int64
	StaticChain        int64
	Spills             int64
	UsageStatic        translate.UsageCounts

	// Recovery statistics (DESIGN.md §10). All zero unless fault
	// injection or self-healing is active.
	ReverifyFails  uint64 // paranoid entry re-checks that failed
	SpuriousTraps  uint64 // spurious traps recovered at fragment entries
	ForcedEvicts   uint64 // injected full-cache flushes
	CacheShrinks   uint64 // injected capacity shrinks (pressure, not damage)
	TransFailures  uint64 // failed or verifier-rejected translations recovered
	StaleLinks     uint64 // dangling fragment links recovered at runtime
	Quarantines    uint64 // start PCs pinned to interpret-only
	Retranslations uint64 // translation attempts retried after a failure
	FallbackInsts  uint64 // instructions interpreted in recovery fallback
	RecoveryCost   int64  // modelled recovery overhead in Alpha instructions

	// Livelock-watchdog statistics (DESIGN.md §11). Zero on undisturbed runs.
	WatchdogTrips uint64 // livelock watchdog quarantines

	// Resource-governance statistics (DESIGN.md §15). Zero unless
	// Config.MaxPages is set and the guest hit its cap.
	ResourceTraps uint64 // precise traps raised by the page-limit governor

	// Shared-fragment-store statistics (docs/FORMAT.md). All zero
	// unless Config.Store is set. A hit reuses an existing artifact
	// without translating (TranslateCost is not charged); a shared hit
	// is the subset whose artifact was translated by a different
	// session or loaded from a persisted store; a miss means this VM
	// ran the translator and published the artifact.
	StoreHits       uint64
	StoreMisses     uint64
	StoreSharedHits uint64
}

// Recoveries returns the total recovery episodes: every event that
// abandoned translated execution (or a translation) and fell back to
// the interpreter. Cache shrinks are not counted — they apply pressure
// without abandoning anything.
func (s *Stats) Recoveries() uint64 {
	return s.ReverifyFails + s.SpuriousTraps + s.ForcedEvicts + s.TransFailures +
		s.StaleLinks + s.WatchdogTrips
}

// add adds the class, usage and copy counts the translation cache
// folded.
func (s *Stats) add(c *tcache.Counts) {
	for i, n := range c.Class {
		s.ClassCounts[i] += n
	}
	for i, n := range c.Usage {
		s.UsageDyn[i] += n
	}
	s.CopiesExecuted += c.Copies
}

// TotalVInsts returns all V-ISA instructions architecturally retired.
func (s *Stats) TotalVInsts() uint64 { return s.InterpInsts + s.TransVInsts }

// InterpCost returns the modelled interpretation overhead in Alpha
// instructions (§4.1's ~20 instructions per interpreted instruction).
func (s *Stats) InterpCost() int64 { return int64(s.InterpInsts) * InterpCostPerInst }

// VMOverhead returns the total modelled VM software overhead —
// interpretation plus translation plus recovery — in Alpha instructions.
func (s *Stats) VMOverhead() int64 { return s.InterpCost() + s.TranslateCost + s.RecoveryCost }

// publishWhen says when Stats.Publish emits a row. Conditional rows keep
// registries byte-identical on runs where their feature did not fire.
type publishWhen uint8

const (
	never        publishWhen = iota // checkpointed only (UsageStatic)
	always                          // on every run, zero or not
	nonzero                         // only when the value is nonzero
	withRecovery                    // on runs that recovered, shrank the cache or quarantined
	withStore                       // on runs that consulted a shared fragment store
)

// statField declares one Stats value — a scalar field or one array
// element — once for every reader: the checkpoint key, the published
// metric name, when Publish emits it, whether it depends on the shared
// fragment store, and a bit-exact accessor pair.
type statField struct {
	key      string // checkpoint counter: stats.<Field> or stats.<Field>.<i>
	metric   string // registry counter Publish writes; "" when never
	when     publishWhen
	storeDep bool // skipped by flight replay comparison (StoreDependent)
	get      func(*Stats) uint64
	set      func(*Stats, uint64)
}

// stat builds a row for the field p selects. Signed fields are
// bit-cast, so negative values round-trip exactly.
func stat[T ~uint64 | ~int64 | ~int](key, metric string, when publishWhen, storeDep bool, p func(*Stats) *T) statField {
	return statField{key: key, metric: metric, when: when, storeDep: storeDep,
		get: func(s *Stats) uint64 { return uint64(*p(s)) },
		set: func(s *Stats, bits uint64) { *p(s) = T(bits) },
	}
}

// statFields is the one declaration of every Stats value: Checkpoint
// and Restore flatten through it, Publish emits from it (DESIGN.md
// §8.1), and flight replay asks it which counters are store-dependent.
// TestStatsCountersRoundTrip fails for a field without exactly one row.
var statFields = []statField{
	stat("stats.InterpInsts", "vm.interp_insts", always, false, func(s *Stats) *uint64 { return &s.InterpInsts }),
	stat("stats.TransVInsts", "vm.trans_v_insts", always, false, func(s *Stats) *uint64 { return &s.TransVInsts }),
	stat("stats.TransIInsts", "vm.trans_i_insts", always, false, func(s *Stats) *uint64 { return &s.TransIInsts }),
	stat("stats.ClassCounts.0", "vm.class.core", always, false, func(s *Stats) *uint64 { return &s.ClassCounts[0] }),
	stat("stats.ClassCounts.1", "vm.class.addr", always, false, func(s *Stats) *uint64 { return &s.ClassCounts[1] }),
	stat("stats.ClassCounts.2", "vm.class.copy", always, false, func(s *Stats) *uint64 { return &s.ClassCounts[2] }),
	stat("stats.ClassCounts.3", "vm.class.chain", always, false, func(s *Stats) *uint64 { return &s.ClassCounts[3] }),
	stat("stats.ClassCounts.4", "vm.class.special", always, false, func(s *Stats) *uint64 { return &s.ClassCounts[4] }),
	stat("stats.UsageDyn.0", "vm.usage.none", nonzero, false, func(s *Stats) *uint64 { return &s.UsageDyn[0] }),
	stat("stats.UsageDyn.1", "vm.usage.no_user", nonzero, false, func(s *Stats) *uint64 { return &s.UsageDyn[1] }),
	stat("stats.UsageDyn.2", "vm.usage.local", nonzero, false, func(s *Stats) *uint64 { return &s.UsageDyn[2] }),
	stat("stats.UsageDyn.3", "vm.usage.temp", nonzero, false, func(s *Stats) *uint64 { return &s.UsageDyn[3] }),
	stat("stats.UsageDyn.4", "vm.usage.liveout", nonzero, false, func(s *Stats) *uint64 { return &s.UsageDyn[4] }),
	stat("stats.UsageDyn.5", "vm.usage.comm", nonzero, false, func(s *Stats) *uint64 { return &s.UsageDyn[5] }),
	stat("stats.UsageDyn.6", "vm.usage.local_to_global", nonzero, false, func(s *Stats) *uint64 { return &s.UsageDyn[6] }),
	stat("stats.UsageDyn.7", "vm.usage.no_user_to_global", nonzero, false, func(s *Stats) *uint64 { return &s.UsageDyn[7] }),
	stat("stats.CopiesExecuted", "vm.copies_executed", always, false, func(s *Stats) *uint64 { return &s.CopiesExecuted }),
	stat("stats.FragEntries", "vm.frag_entries", always, false, func(s *Stats) *uint64 { return &s.FragEntries }),
	stat("stats.Exits", "vm.exits", always, false, func(s *Stats) *uint64 { return &s.Exits }),
	stat("stats.DispatchRuns", "vm.dispatch_runs", always, false, func(s *Stats) *uint64 { return &s.DispatchRuns }),
	stat("stats.DispatchHits", "vm.dispatch_hits", always, false, func(s *Stats) *uint64 { return &s.DispatchHits }),
	stat("stats.SWPredHits", "vm.swpred_hits", always, false, func(s *Stats) *uint64 { return &s.SWPredHits }),
	stat("stats.SWPredMisses", "vm.swpred_misses", always, false, func(s *Stats) *uint64 { return &s.SWPredMisses }),
	stat("stats.RASHits", "vm.ras_hits", always, false, func(s *Stats) *uint64 { return &s.RASHits }),
	stat("stats.RASMisses", "vm.ras_misses", always, false, func(s *Stats) *uint64 { return &s.RASMisses }),
	stat("stats.Fragments", "vm.fragments", always, false, func(s *Stats) *int { return &s.Fragments }),
	stat("stats.FragsVerified", "vm.frags_verified", always, false, func(s *Stats) *int { return &s.FragsVerified }),
	stat("stats.FragsProved", "vm.frags_proved", nonzero, false, func(s *Stats) *int { return &s.FragsProved }),
	stat("stats.SrcInstsTranslated", "vm.src_insts_translated", always, false, func(s *Stats) *int64 { return &s.SrcInstsTranslated }),
	stat("stats.NOPsRemoved", "vm.nops_removed", always, false, func(s *Stats) *int64 { return &s.NOPsRemoved }),
	stat("stats.BranchElims", "vm.branch_elims", always, false, func(s *Stats) *int64 { return &s.BranchElims }),
	stat("stats.TranslateCost", "vm.translate_cost", always, true, func(s *Stats) *int64 { return &s.TranslateCost }),
	stat("stats.StaticCodeBytes", "vm.static_code_bytes", always, false, func(s *Stats) *int64 { return &s.StaticCodeBytes }),
	stat("stats.StaticSrcBytes", "vm.static_src_bytes", always, false, func(s *Stats) *int64 { return &s.StaticSrcBytes }),
	stat("stats.StaticCopies", "vm.static_copies", always, false, func(s *Stats) *int64 { return &s.StaticCopies }),
	stat("stats.StaticChain", "vm.static_chain", always, false, func(s *Stats) *int64 { return &s.StaticChain }),
	stat("stats.Spills", "vm.spills", always, false, func(s *Stats) *int64 { return &s.Spills }),
	stat("stats.UsageStatic.0", "", never, false, func(s *Stats) *int64 { return &s.UsageStatic[0] }),
	stat("stats.UsageStatic.1", "", never, false, func(s *Stats) *int64 { return &s.UsageStatic[1] }),
	stat("stats.UsageStatic.2", "", never, false, func(s *Stats) *int64 { return &s.UsageStatic[2] }),
	stat("stats.UsageStatic.3", "", never, false, func(s *Stats) *int64 { return &s.UsageStatic[3] }),
	stat("stats.UsageStatic.4", "", never, false, func(s *Stats) *int64 { return &s.UsageStatic[4] }),
	stat("stats.UsageStatic.5", "", never, false, func(s *Stats) *int64 { return &s.UsageStatic[5] }),
	stat("stats.UsageStatic.6", "", never, false, func(s *Stats) *int64 { return &s.UsageStatic[6] }),
	stat("stats.UsageStatic.7", "", never, false, func(s *Stats) *int64 { return &s.UsageStatic[7] }),
	stat("stats.ReverifyFails", "vm.recovery.reverify_fails", withRecovery, false, func(s *Stats) *uint64 { return &s.ReverifyFails }),
	stat("stats.SpuriousTraps", "vm.recovery.spurious_traps", withRecovery, false, func(s *Stats) *uint64 { return &s.SpuriousTraps }),
	stat("stats.ForcedEvicts", "vm.recovery.forced_evicts", withRecovery, false, func(s *Stats) *uint64 { return &s.ForcedEvicts }),
	stat("stats.CacheShrinks", "vm.recovery.cache_shrinks", withRecovery, false, func(s *Stats) *uint64 { return &s.CacheShrinks }),
	stat("stats.TransFailures", "vm.recovery.trans_failures", withRecovery, false, func(s *Stats) *uint64 { return &s.TransFailures }),
	stat("stats.StaleLinks", "vm.recovery.stale_links", withRecovery, false, func(s *Stats) *uint64 { return &s.StaleLinks }),
	stat("stats.Quarantines", "vm.recovery.quarantined_pcs", withRecovery, false, func(s *Stats) *uint64 { return &s.Quarantines }),
	stat("stats.Retranslations", "vm.recovery.retranslations", withRecovery, false, func(s *Stats) *uint64 { return &s.Retranslations }),
	stat("stats.FallbackInsts", "vm.recovery.fallback_insts", withRecovery, false, func(s *Stats) *uint64 { return &s.FallbackInsts }),
	stat("stats.RecoveryCost", "vm.recovery.cost", withRecovery, false, func(s *Stats) *int64 { return &s.RecoveryCost }),
	stat("stats.WatchdogTrips", "vm.preempt.watchdog_trips", nonzero, false, func(s *Stats) *uint64 { return &s.WatchdogTrips }),
	stat("stats.ResourceTraps", "vm.resource_traps", nonzero, false, func(s *Stats) *uint64 { return &s.ResourceTraps }),
	stat("stats.StoreHits", "vm.store.hits", withStore, true, func(s *Stats) *uint64 { return &s.StoreHits }),
	stat("stats.StoreMisses", "vm.store.misses", withStore, true, func(s *Stats) *uint64 { return &s.StoreMisses }),
	stat("stats.StoreSharedHits", "vm.store.shared_hits", withStore, true, func(s *Stats) *uint64 { return &s.StoreSharedHits }),
}

// Publish copies every aggregate statistic into the registry under the
// "vm." namespace, as statFields declares, plus the derived recovery
// total (see DESIGN.md §8 for the metric-to-paper mapping). Call it
// once at the end of a run; it is a no-op on a nil registry.
func (s *Stats) Publish(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	recovered := s.Recoveries() != 0 || s.CacheShrinks != 0 || s.Quarantines != 0
	stored := s.StoreHits != 0 || s.StoreMisses != 0
	if recovered {
		reg.Counter("vm.recovery.total").Add(s.Recoveries())
	}
	for _, f := range statFields {
		v := f.get(s)
		if f.when == always || f.when == nonzero && v != 0 ||
			f.when == withRecovery && recovered || f.when == withStore && stored {
			reg.Counter(f.metric).Add(v)
		}
	}
}

// StoreDependent reports whether the checkpoint counter key names a
// Stats value that depends on the shared fragment store, which dedups
// translation across sessions: a replay without the neighbouring
// sessions legitimately translates more (or less) than the original.
func StoreDependent(key string) bool {
	for _, f := range statFields {
		if f.key == key {
			return f.storeDep
		}
	}
	return false
}
