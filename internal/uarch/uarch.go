// Package uarch implements the two trace-driven timing models of the
// paper's evaluation (Table 1):
//
//   - OoO: an idealised 4-wide out-of-order superscalar (128-entry ROB and
//     issue window, oldest-first issue, four symmetric function units) that
//     runs the "original" Alpha traces and the code-straightened Alpha
//     traces; and
//   - ILDP: the accumulator-steered distributed microarchitecture (4/6/8
//     in-order FIFO processing elements, 0- or 2-cycle global communication
//     latency, optionally replicated L1 data caches) that runs the Basic
//     and Modified accumulator traces.
//
// Both share the fetch front-end (g-share + BTB + RAS prediction, up to
// four instructions and three sequential basic blocks per cycle, 3-cycle
// redirects) and in-order retirement. The front end is split in two: a
// fetch stage that needs only the record stream, and the timing core's
// fetch clock (frontend.go). Append runs both per record; Stages hands
// them to a trace.Pipe, which may run the stage on another goroutine.
// Models consume the committed instruction stream produced by the VM
// (package trace) and reconstruct timing; a record with Taken and a
// zero Target marks a mode-switch boundary where the pipeline drains
// and restarts empty (§4.1).
package uarch

import (
	"github.com/ildp/accdbt/internal/cachesim"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/trace"
)

// Config carries the machine parameters of Table 1.
type Config struct {
	Width       int   // fetch/decode/retire bandwidth (4)
	ROB         int   // reorder buffer entries (128)
	RedirectLat int64 // fetch redirection latency (3)
	MulLat      int64 // integer multiply latency (7)

	// OoO-specific.
	FUs int // symmetric function units (4)

	// ILDP-specific.
	PEs       int   // processing elements (4/6/8)
	CommLat   int64 // global communication latency (0/2)
	FIFODepth int   // per-PE issue FIFO depth

	// UseHWRAS enables the conventional hardware return address stack for
	// ClassRet records carrying V-ISA targets (native and straightened
	// traces). DualRASTrace instead trusts the PredHit flag produced by
	// the co-designed dual-address RAS (sw_pred.ras traces).
	UseHWRAS     bool
	DualRASTrace bool

	// Cache options.
	CacheOpts cachesim.Options
}

// withDefaults returns cfg with each zero (or negative) machine
// parameter set to its Table 1 value: Width 4, ROB 128, FUs 4, PEs 8
// and FIFODepth 16.
func (cfg Config) withDefaults() Config {
	if cfg.Width <= 0 {
		cfg.Width = 4
	}
	if cfg.ROB <= 0 {
		cfg.ROB = 128
	}
	if cfg.FUs <= 0 {
		cfg.FUs = 4
	}
	if cfg.PEs <= 0 {
		cfg.PEs = 8
	}
	if cfg.FIFODepth <= 0 {
		cfg.FIFODepth = 16
	}
	return cfg
}

// DefaultOoO returns the paper's superscalar baseline configuration.
func DefaultOoO() Config {
	return Config{
		Width: 4, ROB: 128, RedirectLat: 3, MulLat: 7, FUs: 4,
		UseHWRAS:  true,
		CacheOpts: cachesim.DefaultOptions(),
	}
}

// DefaultILDP returns the paper's baseline ILDP configuration used in
// Fig. 8: 8 PEs, 32KB D-cache, zero-cycle communication latency.
func DefaultILDP() Config {
	return Config{
		Width: 4, ROB: 128, RedirectLat: 3, MulLat: 7,
		PEs: 8, CommLat: 0, FIFODepth: 16,
		DualRASTrace: true,
		CacheOpts:    cachesim.Options{DSizeBytes: 32 << 10, DWays: 4, Replicas: 8},
	}
}

// Result summarises a timing run.
type Result struct {
	Cycles int64
	Insts  uint64 // retired records (Alpha or I-ISA instructions)
	VInsts uint64 // V-ISA instructions retired (VCredit sum)

	CondMispredicts   uint64
	TargetMispredicts uint64
	Misfetches        uint64
	Branches          uint64

	ICacheMisses uint64
	DCacheMisses uint64
	L2Misses     uint64

	// Stall accounting: cycles fetch spent waiting on I-cache misses,
	// added load latency beyond an L1 hit, and cycles lost to redirects
	// (mispredicts + misfetches x their latencies).
	ICacheStall  int64
	DCacheStall  int64
	RedirectLoss int64

	Episodes uint64 // mode-switch boundaries observed
}

// IPC returns V-ISA instructions per cycle, the paper's headline metric.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.VInsts) / float64(r.Cycles)
}

// NativeIPC returns retired records per cycle (the "native I-ISA IPC" of
// Fig. 8's last bar).
func (r Result) NativeIPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// MispredictsPer1000 returns execute-time branch/jump mispredictions per
// thousand retired instructions (Fig. 4's metric).
func (r Result) MispredictsPer1000() float64 {
	if r.Insts == 0 {
		return 0
	}
	return float64(r.CondMispredicts+r.TargetMispredicts) * 1000 / float64(r.Insts)
}

// Publish copies the timing summary into the registry under the given
// prefix (e.g. "uarch.ildp"): cycle/instruction counters, predictor and
// cache-miss counters, stall accounting, and the derived IPC and
// misprediction-rate gauges. No-op on a nil registry.
func (r Result) Publish(reg *metrics.Registry, prefix string) {
	if reg == nil {
		return
	}
	c := func(name string, v uint64) { reg.Counter(prefix + "." + name).Add(v) }
	c("cycles", uint64(r.Cycles))
	c("insts", r.Insts)
	c("v_insts", r.VInsts)
	c("cond_mispredicts", r.CondMispredicts)
	c("target_mispredicts", r.TargetMispredicts)
	c("misfetches", r.Misfetches)
	c("branches", r.Branches)
	c("icache_misses", r.ICacheMisses)
	c("dcache_misses", r.DCacheMisses)
	c("l2_misses", r.L2Misses)
	c("icache_stall_cycles", uint64(r.ICacheStall))
	c("dcache_stall_cycles", uint64(r.DCacheStall))
	c("redirect_loss_cycles", uint64(r.RedirectLoss))
	c("episodes", r.Episodes)
	reg.Gauge(prefix + ".ipc").Set(r.IPC())
	reg.Gauge(prefix + ".native_ipc").Set(r.NativeIPC())
	reg.Gauge(prefix + ".mispredicts_per_1000").Set(r.MispredictsPer1000())
}

// regSpace is the unified dependence-tracking register space: 64 GPRs
// (architected + VM scratch) followed by 8 accumulators, the ranges of
// the record contract (trace.Rec.Validate).
const (
	numGPRTrack = trace.NumRegs
	numAccTrack = trace.NumAccs
	regSpace    = numGPRTrack + numAccTrack
)

func gprIdx(r uint8) int { return int(r) }
func accIdx(a uint8) int { return numGPRTrack + int(a) }

// isEndOfRun reports a mode-switch boundary record.
func isEndOfRun(rec *trace.Rec) bool {
	return rec.Taken && rec.Target == 0 && rec.IsBranch()
}

// profAcc returns the accumulator (strand) to attribute a record's
// cycles to in the execution profiler: the destination accumulator,
// else the source, else none.
func profAcc(rec *trace.Rec) uint8 {
	if rec.DstAcc != trace.NoAcc {
		return rec.DstAcc
	}
	return rec.SrcAcc
}
