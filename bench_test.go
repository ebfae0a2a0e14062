package accdbt_test

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus throughput
// microbenchmarks for the main pipeline stages. The experiment benchmarks
// regenerate the corresponding result at test scale each iteration; custom
// metrics report the headline number of each experiment so the shape is
// visible straight from the bench output.

import (
	"errors"
	"math"
	"testing"

	"github.com/ildp/accdbt"
	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/stats"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/uarch"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

const (
	benchScale     = 1
	benchThreshold = 25
)

// BenchmarkTable2Translate regenerates Table 2 (translated-instruction
// statistics for the Basic and Modified ISAs).
func BenchmarkTable2Translate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(benchScale, benchThreshold)
		var dm []float64
		for _, r := range rows {
			dm = append(dm, r.RelDynM)
		}
		b.ReportMetric(stats.Mean(dm), "modified-expansion")
	}
}

// BenchmarkOverhead regenerates the §4.2 translation-overhead measurement.
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Overhead(benchScale, benchThreshold)
		var per []float64
		for _, r := range rows {
			per = append(per, r.PerInst)
		}
		b.ReportMetric(stats.Mean(per), "insts/translated-inst")
	}
}

// BenchmarkFig4Chaining regenerates Figure 4 (mispredictions per 1000
// instructions under the three chaining schemes).
func BenchmarkFig4Chaining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig4(benchScale, benchThreshold)
		var np, ras []float64
		for _, r := range rows {
			np = append(np, r.NoPred)
			ras = append(ras, r.SWPredRAS)
		}
		b.ReportMetric(stats.Mean(np), "no_pred-mispred/1k")
		b.ReportMetric(stats.Mean(ras), "sw_pred.ras-mispred/1k")
	}
}

// BenchmarkFig5Expansion regenerates Figure 5 (relative instruction count
// from chaining).
func BenchmarkFig5Expansion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig5(benchScale, benchThreshold)
		var ras []float64
		for _, r := range rows {
			ras = append(ras, r.SWPredRAS)
		}
		b.ReportMetric(stats.Mean(ras), "rel-inst-count")
	}
}

// BenchmarkFig6Straightening regenerates Figure 6 (code straightening and
// hardware RAS IPC study).
func BenchmarkFig6Straightening(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig6(benchScale, benchThreshold)
		var orig, str []float64
		for _, r := range rows {
			orig = append(orig, r.OrigRAS)
			str = append(str, r.StraightRAS)
		}
		b.ReportMetric(stats.GeoMean(str)/stats.GeoMean(orig), "straightened/original")
	}
}

// BenchmarkFig7Usage regenerates Figure 7 (output register usage).
func BenchmarkFig7Usage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig7(benchScale, benchThreshold)
		var g []float64
		for _, r := range rows {
			g = append(g, r.GlobalFraction())
		}
		b.ReportMetric(stats.Mean(g), "global-fraction")
	}
}

// BenchmarkFig8IPC regenerates Figure 8 (the headline IPC comparison).
func BenchmarkFig8IPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(benchScale, benchThreshold)
		var mod, str []float64
		for _, r := range rows {
			mod = append(mod, r.Modified)
			str = append(str, r.Straight)
		}
		b.ReportMetric(stats.GeoMean(mod), "modified-IPC")
		b.ReportMetric(stats.GeoMean(mod)/stats.GeoMean(str), "modified/straightened")
	}
}

// BenchmarkFig9Sweep regenerates Figure 9 (machine-parameter sensitivity).
func BenchmarkFig9Sweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig9(benchScale, benchThreshold)
		var base, p4 []float64
		for _, r := range rows {
			base = append(base, r.Base)
			p4 = append(p4, r.PE4)
		}
		b.ReportMetric(stats.GeoMean(base), "base-IPC")
		b.ReportMetric(stats.GeoMean(p4)/stats.GeoMean(base), "4PE/8PE")
	}
}

// --- pipeline-stage microbenchmarks ---

// BenchmarkInterpreter measures raw functional interpretation speed.
func BenchmarkInterpreter(b *testing.B) {
	spec, err := workload.ByName("gzip", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	prog := spec.MustProgram()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		cpu := accdbt.NewCPU(mem.New())
		if err := cpu.LoadProgram(prog); err != nil {
			b.Fatal(err)
		}
		if err := cpu.Run(0); err != nil {
			b.Fatal(err)
		}
		insts += cpu.InstCount
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}

// BenchmarkDBTExecution measures the full VM (translate + execute).
func BenchmarkDBTExecution(b *testing.B) {
	spec, err := workload.ByName("gzip", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	prog := spec.MustProgram()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		cfg := vm.DefaultConfig()
		cfg.HotThreshold = benchThreshold
		v := vm.New(mem.New(), cfg)
		if err := v.LoadProgram(prog); err != nil {
			b.Fatal(err)
		}
		if err := v.Run(0); err != nil {
			b.Fatal(err)
		}
		insts += v.Stats.TotalVInsts()
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "MVinsts/s")
}

// BenchmarkWarmExecution measures translated execution: the twelve
// kernels at scale 4, each in a fresh VM attached to a fragment store
// that already holds every superblock (loaded through the codec, as a
// -cachefile warm start), with no trace sink. ns/iinst is host time per
// executed I-instruction. It includes the interpretation before each
// superblock turns hot; interp-frac is that share of retired
// V-instructions.
func BenchmarkWarmExecution(b *testing.B) {
	const scale = 4
	var progs []*alphaprog.Program
	seed := fragstore.New()
	run := func(prog *alphaprog.Program, store *fragstore.Store) *vm.VM {
		cfg := vm.DefaultConfig()
		cfg.HotThreshold = benchThreshold
		cfg.Store = store
		v := vm.New(mem.New(), cfg)
		if err := v.LoadProgram(prog); err != nil {
			b.Fatal(err)
		}
		if err := v.Run(0); err != nil {
			b.Fatal(err)
		}
		return v
	}
	for _, name := range workload.Names() {
		spec, err := workload.ByName(name, scale)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, spec.MustProgram())
		run(progs[len(progs)-1], seed)
	}
	warm, rep, err := fragstore.Decode(seed.Encode(), fragstore.LoadOptions{})
	if err != nil || rep.Dropped() != 0 {
		b.Fatalf("reloading store: %v (%v)", err, rep)
	}
	b.ResetTimer()
	var iinsts, interp, vinsts, misses uint64
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			v := run(prog, warm)
			iinsts += v.Stats.TransIInsts
			interp += v.Stats.InterpInsts
			vinsts += v.Stats.TotalVInsts()
			misses += v.Stats.StoreMisses
		}
	}
	if misses != 0 {
		b.Fatalf("warm store missed %d superblocks", misses)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iinsts), "ns/iinst")
	b.ReportMetric(float64(interp)/float64(vinsts), "interp-frac")
}

// BenchmarkTranslator measures superblock translation throughput.
func BenchmarkTranslator(b *testing.B) {
	// Build a representative superblock once by running the collector.
	spec, err := workload.ByName("crafty", 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := vm.DefaultConfig()
	cfg.HotThreshold = 10
	v := vm.New(mem.New(), cfg)
	if err := v.LoadProgram(spec.MustProgram()); err != nil {
		b.Fatal(err)
	}
	if err := v.Run(200_000); err != nil && !errors.Is(err, vm.ErrBudget) {
		b.Fatal(err)
	}
	// Re-translate the hottest fragment's source repeatedly via a direct
	// superblock (approximate: reuse the gzip Fig. 2 loop).
	sb := benchSuperblock(b)
	tcfg := translate.Config{Form: accdbt.Modified, NumAcc: 4, Chain: translate.SWPredRAS}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.Translate(sb, tcfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfilerOverhead measures the cost of the execution profiler
// on a full timed DBT run: the "off" case is the identical run with a
// nil profiler (the production fast path), the "on" case attaches a
// profiler to the VM and timing model. Events/s reports the trace-event
// rate the ring absorbs while profiling.
func BenchmarkProfilerOverhead(b *testing.B) {
	spec, err := workload.ByName("gzip", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	prog := spec.MustProgram()
	run := func(b *testing.B, profiled bool) {
		var events, retires uint64
		for i := 0; i < b.N; i++ {
			var p *prof.Profiler
			if profiled {
				p = prof.New(prof.Config{})
			}
			m := uarch.NewILDP(uarch.DefaultILDP())
			m.SetProfiler(p)
			cfg := vm.DefaultConfig()
			cfg.HotThreshold = benchThreshold
			cfg.Sink = m
			cfg.Prof = p
			v := vm.New(mem.New(), cfg)
			if err := v.LoadProgram(prog); err != nil {
				b.Fatal(err)
			}
			if err := v.Run(0); err != nil {
				b.Fatal(err)
			}
			m.Finish()
			if p != nil {
				p.Finish()
				events += p.EventsRecorded()
				retires += p.Retires()
			}
		}
		if profiled {
			b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
			b.ReportMetric(float64(retires)/b.Elapsed().Seconds()/1e6, "Mrecs/s")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// BenchmarkTimingModelILDP measures a timed run of gzip on the ILDP
// machine: the VM emitting the modified-ISA trace into the ILDP model.
// ns/rec is host time per trace record, VM included.
func BenchmarkTimingModelILDP(b *testing.B) {
	benchTimingModel(b, func(cfg *vm.Config) func() uarch.Result {
		m := uarch.NewILDP(uarch.DefaultILDP())
		cfg.Sink = m
		return m.Finish
	})
}

// BenchmarkTimingModelOoO measures a timed run of gzip on the Original
// machine, the slowest per record: every instruction is interpreted
// and its Alpha record feeds the superscalar model.
func BenchmarkTimingModelOoO(b *testing.B) {
	benchTimingModel(b, func(cfg *vm.Config) func() uarch.Result {
		m := uarch.NewOoO(uarch.DefaultOoO())
		cfg.HotThreshold = math.MaxInt32
		cfg.InterpSink = m
		return m.Finish
	})
}

// benchTimingModel runs gzip once per iteration in a VM that attach
// configures, and reports records per second and host ns per record.
func benchTimingModel(b *testing.B, attach func(*vm.Config) func() uarch.Result) {
	spec, err := workload.ByName("gzip", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	prog := spec.MustProgram()
	b.ResetTimer()
	var recs uint64
	for i := 0; i < b.N; i++ {
		cfg := vm.DefaultConfig()
		cfg.HotThreshold = benchThreshold
		finish := attach(&cfg)
		v := vm.New(mem.New(), cfg)
		if err := v.LoadProgram(prog); err != nil {
			b.Fatal(err)
		}
		if err := v.Run(0); err != nil {
			b.Fatal(err)
		}
		recs += finish().Insts
	}
	b.ReportMetric(float64(recs)/b.Elapsed().Seconds()/1e6, "Mrecs/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/rec")
}

// benchSuperblock builds the Fig. 2 loop as a superblock for the
// translator microbenchmark.
func benchSuperblock(b *testing.B) *translate.Superblock {
	b.Helper()
	prog := accdbt.MustAssemble(`
	.text 0x12000
L1:
	ldbu   t2, 0(a0)
	subl   a1, #1, a1
	lda    a0, 1(a0)
	xor    t0, t2, t2
	srl    t0, #8, t0
	and    t2, #255, t2
	s8addq t2, v0, t2
	ldq    t2, 0(t2)
	xor    t2, t0, t0
	bne    a1, L1
`)
	seg := prog.Segments[0]
	sb := &translate.Superblock{StartPC: 0x12000, End: translate.EndBackward, NextPC: 0x12000 + 10*4}
	for off := 0; off+4 <= len(seg.Data); off += 4 {
		w := uint32(seg.Data[off]) | uint32(seg.Data[off+1])<<8 |
			uint32(seg.Data[off+2])<<16 | uint32(seg.Data[off+3])<<24
		inst := accdbt.DecodeAlpha(w)
		rec := translate.SBInst{PC: 0x12000 + uint64(off), Inst: inst}
		if inst.IsCondBranch() {
			rec.Taken = true
		}
		sb.Insts = append(sb.Insts, rec)
	}
	return sb
}

// BenchmarkAblationFusion regenerates the §4.5 unsplit-memory ablation.
func BenchmarkAblationFusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fusion(benchScale, benchThreshold)
		var se, fe []float64
		for _, r := range rows {
			se = append(se, r.SplitExpand)
			fe = append(fe, r.FusedExpand)
		}
		b.ReportMetric(stats.Mean(fe)/stats.Mean(se), "fused/split-expansion")
	}
}

// BenchmarkAblationThreshold regenerates the hot-threshold sweep.
func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Threshold(benchScale, []int{10, 50, 200})
		b.ReportMetric(rows[1].TransFraction, "translated-frac@50")
	}
}

// BenchmarkVMCost regenerates the §4.1/4.2 VM-overhead analysis.
func BenchmarkVMCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.VMCost(benchScale, 50)
		var per []float64
		for _, r := range rows {
			per = append(per, r.InterpPerSrc)
		}
		b.ReportMetric(stats.Mean(per), "interp-insts/src-inst")
	}
}

// BenchmarkAblationRAS regenerates the dual-address RAS sizing sweep.
func BenchmarkAblationRAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.RASSweep(benchScale, benchThreshold, []int{4, 16})
		b.ReportMetric(rows[1].HitRate, "ras16-hit-rate")
	}
}

// BenchmarkVariance regenerates the dataset-sensitivity study.
func BenchmarkVariance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var dynM []float64
		for _, r := range experiments.Variance(benchScale, benchThreshold, []uint64{0, 1}) {
			dynM = append(dynM, r.DynM)
		}
		b.ReportMetric(stats.Spread(dynM), "dynM-spread")
	}
}

// BenchmarkStoreColdVsWarm measures what the shared fragment store
// saves: "cold" gives every iteration a fresh store (every superblock
// translated from scratch), "warm" reuses one store pre-populated
// through the save/load codec (every translation is a shared hit).
// translate-work/run is the per-run translation cost in work units;
// shared-hit-rate is the fraction of fragment installs served by the
// store.
func BenchmarkStoreColdVsWarm(b *testing.B) {
	spec, err := workload.ByName("gzip", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	prog := spec.MustProgram()
	run := func(b *testing.B, store func() *fragstore.Store) {
		var cost, hits, lookups uint64
		for i := 0; i < b.N; i++ {
			cfg := vm.DefaultConfig()
			cfg.HotThreshold = benchThreshold
			cfg.Store = store()
			v := vm.New(mem.New(), cfg)
			if err := v.LoadProgram(prog); err != nil {
				b.Fatal(err)
			}
			if err := v.Run(0); err != nil {
				b.Fatal(err)
			}
			cost += uint64(v.Stats.TranslateCost)
			hits += v.Stats.StoreSharedHits
			lookups += v.Stats.StoreHits + v.Stats.StoreMisses
		}
		b.ReportMetric(float64(cost)/float64(b.N), "translate-work/run")
		b.ReportMetric(float64(hits)/float64(max(lookups, 1)), "shared-hit-rate")
	}
	b.Run("cold", func(b *testing.B) {
		run(b, fragstore.New)
	})
	b.Run("warm", func(b *testing.B) {
		// Populate once, then persist through the codec so the warm path
		// is exactly what -cachefile exercises: decode, re-verify, share.
		seed := fragstore.New()
		cfg := vm.DefaultConfig()
		cfg.HotThreshold = benchThreshold
		cfg.Store = seed
		v := vm.New(mem.New(), cfg)
		if err := v.LoadProgram(prog); err != nil {
			b.Fatal(err)
		}
		if err := v.Run(0); err != nil {
			b.Fatal(err)
		}
		warm, rep, err := fragstore.Decode(seed.Encode(), fragstore.LoadOptions{})
		if err != nil || rep.Dropped() != 0 {
			b.Fatalf("reloading store: %v (%v)", err, rep)
		}
		b.ResetTimer()
		run(b, func() *fragstore.Store { return warm })
	})
}
