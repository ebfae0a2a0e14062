// Command ildpchaos runs the differential chaos oracle from the shell:
// each (seed, machine) pair executes a workload once on the pure Alpha
// interpreter and once on the self-healing DBT VM with deterministic
// fault injection, then compares the final architected state
// bit-for-bit. Any divergence or unrecovered fault fails the sweep.
//
// With -kill the sweep runs the kill-and-resume harness instead: each
// run is preempted at seed-chosen points, checkpointed through the full
// encode/decode path, and resumed in a fresh VM (cold translation
// cache); the final state must still be bit-identical to the
// uninterrupted oracle.
//
// With -serve ADDR the sweep also serves the live telemetry plane
// (DESIGN.md §13): each run registers a session whose VM is watched
// through the zero-perturbation poll protocol, so /metrics, /events and
// /vms show the self-healing machinery as it works; the plane keeps the
// running session and the last 8 finished ones. With -seeds 0 the sweep
// runs until SIGINT or SIGTERM, then prints its summary.
//
// With -replay BUNDLE the tool re-executes a flight-recorder repro
// bundle (recorded by `ildpvm -bundle` or `ildpserve -bundle-dir`) and
// demands the bit-identical failure — same kind, same V-PC, same
// counters. Exit 0 means the failure reproduced exactly; exit 1 names
// the first divergence.
//
// Usage:
//
//	ildpchaos -seeds 50 -workload gzip -machines all -kinds all
//	ildpchaos -seeds 1 -seed-base 424242 -machines ildp-modified -kinds bitflip -v
//	ildpchaos -kill -seeds 50 -kills 3
//	ildpchaos -serve 127.0.0.1:9844 -seeds 0
//	ildpchaos -replay crash.bundle
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/flight"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/telemetry"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// logger is the process-wide structured logger for diagnostics; sweep
// results stay on stdout in their fixed format.
var logger *slog.Logger

func main() {
	seeds := flag.Int("seeds", 50, "number of consecutive seeds to sweep (0 = until interrupted)")
	seedBase := flag.Uint64("seed-base", 1000, "first seed of the sweep")
	wlName := flag.String("workload", "gzip", "workload name (see ildpbench -list)")
	scale := flag.Int("scale", 1, "workload scale factor")
	machinesFlag := flag.String("machines", "all", "comma-separated machines, or \"all\"")
	kindsFlag := flag.String("kinds", "all", "comma-separated fault kinds, or \"all\"")
	entryRate := flag.Int("entry-rate", 16, "fault one fragment entry in N decisions")
	transRate := flag.Int("trans-rate", 4, "fault one translation in N decisions")
	maxFaults := flag.Int("max-faults", 0, "stop injecting after N applied faults (0 = unlimited)")
	maxV := flag.Int64("max", 50_000_000, "V-instruction budget per run (0 = unlimited)")
	verbose := flag.Bool("v", false, "print one line per run instead of only failures")
	kill := flag.Bool("kill", false, "run the kill-and-resume harness instead of fault injection")
	kills := flag.Int("kills", 3, "maximum preemptions per run (with -kill; actual count is seed-chosen)")
	serveAddr := flag.String("serve", "", "serve the live telemetry plane (/metrics, /events, /vms) on this address during the sweep")
	replay := flag.String("replay", "", "re-execute a flight-recorder bundle and demand the bit-identical failure")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "log format: text | json")
	flag.Parse()

	var err error
	logger, err = telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ildpchaos:", err)
		os.Exit(2)
	}

	if *replay != "" {
		replayBundle(*replay)
		return
	}

	machines, err := experiments.ParseMachines(*machinesFlag)
	if err != nil {
		fatal(err)
	}
	kinds, err := faultinject.Kinds.Parse(*kindsFlag)
	if err != nil {
		fatal(err)
	}
	wl, err := workload.ByName(*wlName, *scale)
	if err != nil {
		fatal(err)
	}

	mode := chaosSweep(wl, kinds, *entryRate, *transRate, *maxFaults, *maxV)
	if *kill {
		mode = killSweep(wl, *kills, *maxV)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var plane *telemetry.Plane
	if *serveAddr != "" {
		plane = telemetry.New(telemetry.Options{Logger: logger})
		if err := plane.Serve(*serveAddr, os.Stdout); err != nil {
			fatal(err)
		}
	}

	var runs, failures int
	for s := 0; ctx.Err() == nil && (*seeds == 0 || s < *seeds); s++ {
		seed := *seedBase + uint64(s)
		m := machines[s%len(machines)]
		var obs observer
		var sess *telemetry.Session
		if plane != nil {
			obs.reg = metrics.NewRegistry()
			sess = plane.Register(telemetry.SessionConfig{
				Name:     fmt.Sprintf("%s-%d", mode.name, seed),
				Workload: wl.Name, Machine: m.String(), Registry: obs.reg,
			})
			obs.tune = func(cfg *vm.Config) { cfg.Poll = sess.Poll }
			obs.attach = func(v *vm.VM) { sess.Attach(telemetry.ProbeVM(v, nil)) }
		}
		line, diverged, err := mode.run(seed, m, obs)
		if sess != nil {
			sess.Finish()
		}
		runs++
		switch {
		case err != nil:
			failures++
			logger.Error("run failed", "seed", seed, "machine", m.String(), "err", err)
		case diverged != nil:
			failures++
			logger.Error("state diverged", append([]any{"seed", seed, "machine", m.String()}, diverged...)...)
		case *verbose:
			fmt.Printf("ok   seed %d on %-13v %s\n", seed, m, line)
		}
	}

	fmt.Println(mode.summary(runs-failures, runs))
	if failures > 0 {
		os.Exit(1)
	}
}

// observer attaches one run to the -serve plane: a metrics registry
// and the Tune/Attach hooks that put the session's poll protocol on
// the VM. The zero value attaches nothing.
type observer struct {
	reg    *metrics.Registry
	tune   func(*vm.Config)
	attach func(*vm.VM)
}

// sweepMode is what differs between the fault sweep and -kill. run
// executes one seed; a green run folds into the mode's totals and
// returns its -v line, a diverged one returns the fields to log.
// summary renders the closing line.
type sweepMode struct {
	name    string
	run     func(seed uint64, m experiments.Machine, obs observer) (line string, diverged []any, err error)
	summary func(green, runs int) string
}

// chaosSweep runs the differential chaos oracle with fault injection.
func chaosSweep(wl *workload.Spec, kinds []faultinject.Kind, entryRate, transRate, maxFaults int, maxV int64) sweepMode {
	var faults faultinject.Counts[faultinject.Kind]
	var recoveries, quarantines uint64
	return sweepMode{
		name: "chaos",
		run: func(seed uint64, m experiments.Machine, obs observer) (string, []any, error) {
			out, err := experiments.RunChaos(experiments.ChaosSpec{
				Workload: wl, Machine: m, Seed: seed,
				Kinds:     kinds,
				EntryRate: entryRate, TranslateRate: transRate,
				MaxFaults: maxFaults,
				MaxV:      maxV,
				Metrics:   obs.reg, Tune: obs.tune, Attach: obs.attach,
			})
			switch {
			case err != nil:
				return "", nil, err
			case out.Mismatch != "":
				return "", []any{"mismatch", out.Mismatch, "faults", out.Faults.String()}, nil
			}
			for k, n := range out.Faults {
				faults[k] += n
			}
			recoveries += out.VM.Recoveries()
			quarantines += out.VM.Quarantines
			return fmt.Sprintf("%3d faults, %3d recoveries, %d quarantined (%s)",
				out.Faults.Total(), out.VM.Recoveries(), out.VM.Quarantines, out.Faults), nil, nil
		},
		summary: func(green, runs int) string {
			return fmt.Sprintf("chaos: %d/%d runs green on %s; %d faults applied, %d recoveries, %d quarantines (%s)",
				green, runs, wl.Name, faults.Total(), recoveries, quarantines, faults)
		},
	}
}

// killSweep runs the kill-and-resume harness. Any comparison error,
// state divergence, or accounting mismatch fails the run.
func killSweep(wl *workload.Spec, kills int, maxV int64) sweepMode {
	var totalKills, lastCkpt int
	return sweepMode{
		name: "kill",
		run: func(seed uint64, m experiments.Machine, obs observer) (string, []any, error) {
			out, err := experiments.RunKillResume(experiments.KillResumeSpec{
				Workload: wl, Machine: m, Seed: seed, Kills: kills, MaxV: maxV,
				Metrics: obs.reg, Tune: obs.tune, Attach: obs.attach,
			})
			switch {
			case err != nil:
				return "", nil, err
			case out.Mismatch != "":
				return "", []any{"kills", out.Kills, "targets", fmt.Sprint(out.KillTargets), "mismatch", out.Mismatch}, nil
			}
			totalKills += out.Kills
			if out.CkptBytes > 0 {
				lastCkpt = out.CkptBytes
			}
			return fmt.Sprintf("%d kills at %v, %d segments, ckpt %d bytes",
				out.Kills, out.KillTargets, out.Segments, out.CkptBytes), nil, nil
		},
		summary: func(green, runs int) string {
			return fmt.Sprintf("kill-resume: %d/%d runs green on %s; %d kills taken, last checkpoint %d bytes",
				green, runs, wl.Name, totalKills, lastCkpt)
		},
	}
}

// replayBundle re-executes a flight-recorder bundle and checks the
// outcome against the recorded failure. A reproduced failure exits 0;
// any divergence (or an unreadable bundle) exits 1 naming the cause.
func replayBundle(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	b, err := flight.Decode(raw)
	if err != nil {
		fatal(fmt.Errorf("decoding %s: %w", path, err))
	}
	fmt.Printf("bundle: %s failure at V-PC %#x: %s\n", b.Kind, b.VPC, b.Cause)
	for _, ev := range b.Events {
		fmt.Printf("  event: %s\n", ev)
	}
	res, err := flight.Replay(b)
	if err != nil {
		fatal(fmt.Errorf("replaying %s: %w", path, err))
	}
	if err := res.Matches(b); err != nil {
		logger.Error("replay diverged from the recorded failure", "err", err)
		os.Exit(1)
	}
	fmt.Printf("replay: reproduced the %s failure bit-identically at V-PC %#x (%d counters agree)\n",
		res.Kind, res.VPC, len(res.Counters))
}

func fatal(err error) {
	if logger == nil {
		logger = slog.Default()
	}
	logger.Error(err.Error())
	os.Exit(1)
}
