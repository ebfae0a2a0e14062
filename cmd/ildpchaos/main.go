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
//	ildpchaos -replay crash.bundle
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/flight"
	"github.com/ildp/accdbt/internal/telemetry"
	"github.com/ildp/accdbt/internal/workload"
)

// logger is the process-wide structured logger for diagnostics; sweep
// results stay on stdout in their fixed format.
var logger *slog.Logger

func parseKinds(s string) ([]faultinject.Kind, error) {
	if s == "all" {
		return nil, nil // nil means "all kinds" to the injector
	}
	var out []faultinject.Kind
	for _, name := range strings.Split(s, ",") {
		k, err := faultinject.KindByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

func main() {
	seeds := flag.Int("seeds", 50, "number of consecutive seeds to sweep")
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
	kinds, err := parseKinds(*kindsFlag)
	if err != nil {
		fatal(err)
	}
	wl, err := workload.ByName(*wlName, *scale)
	if err != nil {
		fatal(err)
	}

	if *kill {
		killResumeSweep(wl, machines, *seeds, *seedBase, *kills, *maxV, *verbose)
		return
	}

	var runs, failures int
	var faults faultinject.Counts
	var recoveries, quarantines uint64
	for s := 0; s < *seeds; s++ {
		seed := *seedBase + uint64(s)
		m := machines[s%len(machines)]
		out, err := experiments.RunChaos(experiments.ChaosSpec{
			Workload: wl, Machine: m, Seed: seed,
			Kinds:     kinds,
			EntryRate: *entryRate, TranslateRate: *transRate,
			MaxFaults: *maxFaults,
			MaxV:      *maxV,
		})
		runs++
		switch {
		case err != nil:
			failures++
			logger.Error("run failed", "seed", seed, "machine", m.String(), "err", err)
			continue
		case out.Mismatch != "":
			failures++
			logger.Error("state diverged", "seed", seed, "machine", m.String(),
				"mismatch", out.Mismatch, "faults", out.Faults.String())
			continue
		}
		for k, n := range out.Faults {
			faults[k] += n
		}
		recoveries += out.VM.Recoveries()
		quarantines += out.VM.Quarantines
		if *verbose {
			fmt.Printf("ok   seed %d on %-13v %3d faults, %3d recoveries, %d quarantined (%s)\n",
				seed, m, out.Faults.Total(), out.VM.Recoveries(), out.VM.Quarantines, out.Faults)
		}
	}

	fmt.Printf("chaos: %d/%d runs green on %s; %d faults applied, %d recoveries, %d quarantines (%s)\n",
		runs-failures, runs, wl.Name, faults.Total(), recoveries, quarantines, faults)
	if failures > 0 {
		os.Exit(1)
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

// killResumeSweep drives RunKillResume over the seed range, cycling
// machines exactly like the fault sweep. Any comparison error, state
// divergence, or accounting mismatch fails the sweep.
func killResumeSweep(wl *workload.Spec, machines []experiments.Machine,
	seeds int, seedBase uint64, kills int, maxV int64, verbose bool) {
	var runs, failures, totalKills int
	lastCkpt := 0
	for s := 0; s < seeds; s++ {
		seed := seedBase + uint64(s)
		m := machines[s%len(machines)]
		out, err := experiments.RunKillResume(experiments.KillResumeSpec{
			Workload: wl, Machine: m, Seed: seed, Kills: kills, MaxV: maxV,
		})
		runs++
		switch {
		case err != nil:
			failures++
			logger.Error("run failed", "seed", seed, "machine", m.String(), "err", err)
			continue
		case out.Mismatch != "":
			failures++
			logger.Error("state diverged", "seed", seed, "machine", m.String(),
				"kills", out.Kills, "targets", fmt.Sprint(out.KillTargets), "mismatch", out.Mismatch)
			continue
		}
		totalKills += out.Kills
		if out.CkptBytes > 0 {
			lastCkpt = out.CkptBytes
		}
		if verbose {
			fmt.Printf("ok   seed %d on %-13v %d kills at %v, %d segments, ckpt %d bytes\n",
				seed, m, out.Kills, out.KillTargets, out.Segments, out.CkptBytes)
		}
	}
	fmt.Printf("kill-resume: %d/%d runs green on %s; %d kills taken, last checkpoint %d bytes\n",
		runs-failures, runs, wl.Name, totalKills, lastCkpt)
	if failures > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	if logger == nil {
		logger = slog.Default()
	}
	logger.Error(err.Error())
	os.Exit(1)
}
