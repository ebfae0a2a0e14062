// Command ildpvm runs an Alpha program (a named workload, an assembly
// source file, or an alphaasm image) through the co-designed virtual
// machine, and reports the dynamic binary translation statistics —
// optionally with a disassembly of the hottest translated fragments and a
// timing-model IPC estimate.
//
// A run can be preempted — by a wall-clock -deadline or the -max
// V-instruction budget — at a precise V-instruction boundary (exit
// status 3), checkpointed to a file with -checkpoint, and later
// continued bit-identically with -resume.
//
// Translated fragments can persist across runs: -cachefile loads a
// shared fragment store from the named file when it exists (every
// loaded fragment is re-verified, and -cache-prove additionally
// re-proved, before it becomes visible) and saves the store back on
// exit, so a warm second run translates nothing it has seen before.
// -cache-stats reports hit/miss/load counters. See docs/FORMAT.md for
// the on-disk format.
//
// The guest can be governed with -max-pages: exceeding the resident
// page cap raises a precise, typed resource trap at the faulting V-PC
// (exit status 2). With -bundle FILE any failing run — a guest trap, a
// resource kill — is recorded as a flight-recorder repro bundle that
// `ildpchaos -replay FILE` re-executes to the identical failure.
//
// With -serve ADDR the process attaches the live telemetry plane
// (DESIGN.md §13): Prometheus exposition on /metrics, an SSE event
// stream on /events, session introspection on /vms, and health checks
// on /healthz and /readyz. The plane stays up after the run finishes,
// serving the final state, until the process is interrupted.
//
// Usage:
//
//	ildpvm -workload gzip -form modified -chain sw_pred.ras
//	ildpvm -src prog.s -threshold 20 -dump 3
//	ildpvm -img prog.img -timing
//	ildpvm -workload gzip -max 100000 -checkpoint state.ckpt
//	ildpvm -resume state.ckpt
//	ildpvm -workload gzip -cachefile gzip.fs -cache-stats
//	ildpvm -workload membomb -max-pages 64 -bundle crash.bundle
//	ildpvm -workload gzip -serve 127.0.0.1:9844
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/flight"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/iofs"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/telemetry"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/uarch"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// logger carries the process-wide structured logger, built from
// -log-level / -log-format right after flag parsing. Diagnostics go
// through it; the stdout report format is unchanged.
var logger *slog.Logger

func main() {
	wl := flag.String("workload", "", "run a named synthetic workload (see -list)")
	list := flag.Bool("list", false, "list available workloads")
	srcFile := flag.String("src", "", "run an Alpha assembly source file")
	imgFile := flag.String("img", "", "run an alphaasm program image")
	scale := flag.Int("scale", 1, "workload scale factor")
	form := flag.String("form", "modified", "I-ISA form: basic | modified | straighten")
	chain := flag.String("chain", "sw_pred.ras", "chaining: no_pred | sw_pred.no_ras | sw_pred.ras")
	threshold := flag.Int("threshold", 50, "hot-trace threshold")
	numAcc := flag.Int("acc", 4, "logical accumulators (basic/modified)")
	maxV := flag.Int64("max", 0, "V-instruction budget (0 = unlimited)")
	fuse := flag.Bool("fuse", false, "unsplit memory operations (the §4.5 extension)")
	dump := flag.Int("dump", 0, "disassemble the N hottest translated fragments")
	hot := flag.Int("hot", 0, "attach the execution profiler and print the N hottest fragments by cycles (implies -timing)")
	metricsJSON := flag.Bool("metrics", false, "collect a metrics registry (counters + fragment lifecycle events) and dump it as JSON")
	timing := flag.Bool("timing", false, "attach the matching timing model and report IPC")
	pes := flag.Int("pes", 8, "ILDP processing elements (with -timing)")
	commLat := flag.Int64("comm", 0, "ILDP global wire latency in cycles (with -timing)")
	chaos := flag.String("chaos", "", "enable deterministic fault injection with this decimal seed (forces verify + paranoid + self-heal)")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline; on expiry the run preempts at a precise V-instruction boundary (exit status 3)")
	ckptFile := flag.String("checkpoint", "", "write a checkpoint of the final architected state to this file (pairs with -deadline or -max)")
	resumeFile := flag.String("resume", "", "restore architected state from this checkpoint file and continue (replaces -workload/-src/-img)")
	watchdog := flag.Int64("watchdog", 0, "livelock watchdog window in work units (0 = off)")
	maxPages := flag.Int("max-pages", 0, "guest page limit; exceeding it raises a precise resource trap at the faulting V-PC (0 = ungoverned)")
	bundleFile := flag.String("bundle", "", "on a failing run (trap, resource kill, crash), write a flight-recorder repro bundle to this file (replay with ildpchaos -replay)")
	cacheFile := flag.String("cachefile", "", "persistent translation cache: load this file if it exists, share the store with the run, save it back on exit")
	cacheStats := flag.Bool("cache-stats", false, "report shared-store statistics (attaches an in-memory store even without -cachefile)")
	cacheProve := flag.Bool("cache-prove", false, "with -cachefile, also re-prove loaded fragments with the symbolic equivalence checker")
	serve := flag.String("serve", "", "serve the live telemetry plane (/metrics, /events, /vms, /healthz) on this address and keep serving after the run until interrupted")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "log format: text | json")
	flag.Parse()

	var err error
	logger, err = telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ildpvm:", err)
		os.Exit(2)
	}

	if *list {
		workload.List(os.Stdout)
		return
	}

	var prog *alphaprog.Program
	var name string
	var resumeState *checkpoint.State
	var resumeRaw []byte // encoded resume checkpoint, kept for -bundle
	if *resumeFile != "" {
		data, err := os.ReadFile(*resumeFile)
		if err != nil {
			fatal(err)
		}
		resumeState, err = checkpoint.Decode(data)
		if err != nil {
			fatal(err)
		}
		resumeRaw = data
		name = *resumeFile
	} else {
		prog, name, err = workload.Load(*wl, *srcFile, *imgFile, *scale)
		if errors.Is(err, workload.ErrNoProgram) {
			logger.Error(err.Error())
			os.Exit(2)
		}
		if err != nil {
			fatal(err)
		}
	}

	cfg := vm.DefaultConfig()
	cfg.HotThreshold = *threshold
	cfg.NumAcc = *numAcc
	cfg.FuseMemOps = *fuse
	cfg.MaxPages = *maxPages
	cfg.WatchdogWindow = *watchdog
	if *deadline > 0 {
		var expired atomic.Bool
		timer := time.AfterFunc(*deadline, func() { expired.Store(true) })
		defer timer.Stop()
		cfg.Stop = expired.Load
	}
	if cfg.Chain, err = translate.ParseChainMode(*chain); err != nil {
		fatal(err)
	}
	// -form straighten names the straightening-only machine, not an
	// I-ISA form. The label names the machine in the report and the
	// telemetry session.
	machine, label := experiments.Straightened, "straightened"
	if *form != "straighten" {
		f, err := ildp.ParseForm(*form)
		if err != nil {
			fatal(fmt.Errorf("%w, or straighten", err))
		}
		machine, label = experiments.ILDPBasic, f.String()
		if f == ildp.Modified {
			machine = experiments.ILDPModified
		}
	}

	if *chaos != "" {
		seed, err := strconv.ParseUint(*chaos, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("-chaos wants a decimal seed: %w", err))
		}
		cfg.Verify = true
		cfg.Paranoid = true
		cfg.SelfHeal = true
		cfg.Faults = &faultinject.Config{Seed: seed}
	}

	var store *fragstore.Store
	var loadRep *fragstore.LoadReport
	if *cacheFile != "" || *cacheStats {
		store = fragstore.New()
		if *cacheFile != "" {
			data, err := os.ReadFile(*cacheFile)
			switch {
			case err == nil:
				store, loadRep, err = fragstore.Decode(data, fragstore.LoadOptions{SemCheck: *cacheProve})
				if err != nil {
					fatal(fmt.Errorf("loading %s: %w", *cacheFile, err))
				}
			case !errors.Is(err, fs.ErrNotExist):
				fatal(err)
			}
		}
		cfg.Store = store
	}

	var reg *metrics.Registry
	if *metricsJSON || *serve != "" {
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}

	var profiler *prof.Profiler
	if *hot > 0 {
		*timing = true
		profiler = prof.New(prof.Config{})
		cfg.Prof = profiler
	}

	model, err := experiments.RunSpec{
		Machine: machine, Chain: cfg.Chain, PEs: *pes, CommLat: *commLat,
		Timing: *timing, Prof: profiler,
	}.Build(&cfg)
	if err != nil {
		fatal(err)
	}

	var plane *telemetry.Plane
	var sess *telemetry.Session
	if *serve != "" {
		plane = telemetry.New(telemetry.Options{Logger: logger, Store: store})
		sess = plane.Register(telemetry.SessionConfig{
			Name: name, Workload: name, Machine: label, Registry: reg,
		})
		cfg.Poll = sess.Poll
		if err := plane.Serve(*serve, os.Stdout); err != nil {
			fatal(err)
		}
	}

	v := vm.New(mem.New(), cfg)
	if resumeState != nil {
		v.Restore(resumeState)
	} else if err := v.LoadProgram(prog); err != nil {
		fatal(err)
	}
	if sess != nil {
		sess.Attach(telemetry.ProbeVM(v, profiler))
	}
	var pe *vm.PreemptError
	if runErr := v.Run(*maxV); runErr != nil && !errors.As(runErr, &pe) {
		if *bundleFile != "" {
			writeBundle(*bundleFile, v, cfg, runErr, prog, resumeRaw, *maxV, name)
		}
		var tr *emu.Trap
		if errors.As(runErr, &tr) {
			kind, _ := flight.Classify(runErr)
			logger.Error(kind, "vpc", fmt.Sprintf("%#x", tr.PC), "cause", tr.Cause)
			os.Exit(2)
		}
		fatal(runErr)
	}
	if sess != nil {
		sess.Finish()
	}

	report(name, label, v, cfg.Chain)
	if pe != nil {
		cause := "deadline"
		if errors.Is(pe, vm.ErrBudget) {
			cause = "budget"
		}
		fmt.Printf("preempted:          %s at V-PC %#x after %d V-insts\n",
			cause, pe.PC, v.Stats.TotalVInsts())
	}
	if inj := v.Injector(); inj != nil {
		s := &v.Stats
		fmt.Printf("chaos:              %d faults applied over %d decisions (%s)\n",
			inj.Counts().Total(), inj.Decisions(), inj.Counts())
		fmt.Printf("recovery:           %d episodes (%d reverify, %d spurious, %d evict, %d trans-fail, %d stale), %d quarantined, %d fallback insts, cost %d\n",
			s.Recoveries(), s.ReverifyFails, s.SpuriousTraps, s.ForcedEvicts,
			s.TransFailures, s.StaleLinks, s.Quarantines, s.FallbackInsts, s.RecoveryCost)
	}
	res, _ := model.Finish()
	switch {
	case model.OoO != nil:
		printTiming("out-of-order superscalar", res)
		res.Publish(reg, "uarch.ooo")
	case model.ILDP != nil:
		printTiming(fmt.Sprintf("ILDP %d-PE", *pes), res)
		res.Publish(reg, "uarch.ildp")
	}
	if *dump > 0 {
		dumpFragments(v, *dump)
	}
	if profiler != nil {
		fmt.Printf("\nhot fragments:\n")
		if err := profiler.Profile().WriteHotTable(os.Stdout, *hot); err != nil {
			fatal(err)
		}
	}
	if *metricsJSON {
		v.Stats.Publish(reg)
		fmt.Printf("metrics events:     %d recorded, %d dropped by the ring\n",
			reg.EventsRecorded(), reg.EventsDropped())
		out, err := json.MarshalIndent(reg, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Printf("metrics:\n%s\n", out)
	}
	if store != nil {
		if *cacheStats {
			fmt.Printf("cache store:        %s\n", store.Stats())
			if loadRep != nil {
				fmt.Printf("cache load:         %s\n", loadRep)
			}
			fmt.Printf("cache this run:     %d hits (%d shared), %d misses\n",
				v.Stats.StoreHits, v.Stats.StoreSharedHits, v.Stats.StoreMisses)
		}
		if *cacheFile != "" {
			// Atomic write-temp-rename: a crash or a full disk partway
			// through the save never clobbers a good existing cache file.
			data := store.Encode()
			if err := iofs.AtomicWriteFile(iofs.OS{}, *cacheFile, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("cache file:         %d fragments, %d bytes -> %s\n",
				store.Len(), len(data), *cacheFile)
		}
	}
	if *ckptFile != "" {
		data := checkpoint.Encode(v.Checkpoint())
		if err := iofs.AtomicWriteFile(iofs.OS{}, *ckptFile, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint:         %d bytes -> %s\n", len(data), *ckptFile)
	}
	if plane != nil {
		logger.Info("run finished; telemetry plane still serving", "addr", *serve)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		plane.Close()
	}
	if pe != nil {
		os.Exit(3)
	}
}

// writeBundle records a failing run as a flight-recorder repro bundle
// (DESIGN.md §15) that `ildpchaos -replay` re-executes to the identical
// failure. Clean halts and ordinary preemptions are never bundled.
func writeBundle(path string, v *vm.VM, cfg vm.Config, runErr error,
	prog *alphaprog.Program, resumeRaw []byte, budget int64, name string) {
	kind, failure := flight.Classify(runErr)
	if !failure {
		return
	}
	b := &flight.Bundle{
		Kind:       kind,
		VPC:        v.CPU().PC,
		Cause:      runErr.Error(),
		Config:     flight.CaptureConfig(cfg),
		Faults:     cfg.Faults,
		Budget:     budget,
		Checkpoint: resumeRaw,
		Counters:   v.Checkpoint().Counters,
		Events:     []string{"program: " + name, "failure: " + runErr.Error()},
	}
	if resumeRaw == nil && prog != nil {
		var buf bytes.Buffer
		if err := prog.Save(&buf); err != nil {
			logger.Error("bundle: encoding program image", "err", err)
			return
		}
		b.Program = buf.Bytes()
	}
	if err := iofs.AtomicWriteFile(iofs.OS{}, path, flight.Encode(b), 0o644); err != nil {
		logger.Error("bundle: writing", "path", path, "err", err)
		return
	}
	fmt.Printf("bundle:             %s failure recorded -> %s\n", kind, path)
}

func report(name, label string, v *vm.VM, chain translate.ChainMode) {
	s := &v.Stats
	fmt.Printf("program:            %s (%s, %v)\n", name, label, chain)
	fmt.Printf("exit status:        %d, console %q\n", v.CPU().ExitStatus, v.CPU().ConsoleString())
	fmt.Printf("V-insts total:      %d (interpreted %d, translated %d, %.1f%% translated)\n",
		s.TotalVInsts(), s.InterpInsts, s.TransVInsts,
		100*float64(s.TransVInsts)/float64(max(s.TotalVInsts(), 1)))
	fmt.Printf("I-insts executed:   %d (expansion %.2fx)\n", s.TransIInsts,
		float64(s.TransIInsts)/float64(max(s.TransVInsts, 1)))
	fmt.Printf("fragments:          %d (%d source insts, %d NOPs removed, %d branches straightened)\n",
		s.Fragments, s.SrcInstsTranslated, s.NOPsRemoved, s.BranchElims)
	fmt.Printf("translation cost:   %d work units (%.0f per source inst)\n",
		s.TranslateCost, float64(s.TranslateCost)/float64(max(s.SrcInstsTranslated, 1)))
	fmt.Printf("copies executed:    %d (%.1f%% of I-insts)\n", s.CopiesExecuted,
		100*float64(s.CopiesExecuted)/float64(max(s.TransIInsts, 1)))
	fmt.Printf("chaining:           %d dispatch runs (%d hit), sw-pred %d/%d hit, dual-RAS %d/%d hit, %d patches\n",
		s.DispatchRuns, s.DispatchHits,
		s.SWPredHits, s.SWPredHits+s.SWPredMisses,
		s.RASHits, s.RASHits+s.RASMisses, v.TCache().Patches)
	fmt.Printf("static code:        %d I-bytes for %d V-bytes (%.2fx)\n",
		s.StaticCodeBytes, s.StaticSrcBytes,
		float64(s.StaticCodeBytes)/float64(max(s.StaticSrcBytes, 1)))
}

func printTiming(machine string, r uarch.Result) {
	fmt.Printf("timing (%s):\n", machine)
	fmt.Printf("  cycles %d, V-IPC %.2f, native IPC %.2f\n", r.Cycles, r.IPC(), r.NativeIPC())
	fmt.Printf("  mispredicts/1000: %.2f (cond %d, target %d, misfetch %d)\n",
		r.MispredictsPer1000(), r.CondMispredicts, r.TargetMispredicts, r.Misfetches)
	fmt.Printf("  cache misses: I %d, D %d, L2 %d\n", r.ICacheMisses, r.DCacheMisses, r.L2Misses)
	fmt.Printf("  stalls: icache %d, dcache %d, redirects %d cycles\n",
		r.ICacheStall, r.DCacheStall, r.RedirectLoss)
}

func dumpFragments(v *vm.VM, n int) {
	tc := v.TCache()
	var frags []*tcache.Fragment
	for id := int32(0); int(id) < tc.Len(); id++ {
		if f := tc.Frag(id); f != nil { // invalidated slots stay nil
			frags = append(frags, f)
		}
	}
	sort.Slice(frags, func(i, j int) bool {
		return frags[i].ExecCount > frags[j].ExecCount
	})
	if n > len(frags) {
		n = len(frags)
	}
	for _, f := range frags[:n] {
		fmt.Printf("\nfragment %d: V %#x, %d entries, %d insts\n",
			f.ID, f.VStart, f.ExecCount, len(f.Insts))
		for i := range f.Insts {
			fmt.Printf("  %#010x: %s\n", f.IAddrs[i], f.Insts[i].String())
		}
	}
}

func fatal(err error) {
	if logger == nil {
		logger = slog.Default()
	}
	logger.Error(err.Error())
	os.Exit(1)
}
