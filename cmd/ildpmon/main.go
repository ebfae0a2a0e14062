// Command ildpmon is a soak monitor: it drives a continuous sweep of
// differential chaos runs (or kill-and-resume runs with -mode kill)
// while serving the live telemetry plane over HTTP, so the self-healing
// machinery can be watched in real time — Prometheus exposition on
// /metrics, an SSE event stream on /events, and per-session
// introspection on /vms (see DESIGN.md §13).
//
// Each iteration registers a fresh telemetry session, attaches it to
// the run through the experiments Tune/Attach hooks (a Poll hook on the
// VM plus a probe — the zero-perturbation protocol), and finishes it
// when the run completes. The last -keep finished sessions stay
// browsable; older ones are deregistered.
//
// Usage:
//
//	ildpmon -addr 127.0.0.1:9844
//	ildpmon -mode kill -machines ildp-modified -iterations 100
//	curl -s http://127.0.0.1:9844/metrics | grep vm_recovery
//	curl -N http://127.0.0.1:9844/events
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/telemetry"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9844", "serve the telemetry plane on this address")
	mode := flag.String("mode", "chaos", "sweep mode: chaos | kill")
	wlName := flag.String("workload", "gzip", "workload name (see ildpvm -list)")
	scale := flag.Int("scale", 1, "workload scale factor")
	machinesFlag := flag.String("machines", "all", "comma-separated machines, or \"all\"")
	seedBase := flag.Uint64("seed-base", 1000, "first seed of the sweep")
	iterations := flag.Int("iterations", 0, "number of runs (0 = until interrupted)")
	interval := flag.Duration("interval", 0, "pause between runs")
	keep := flag.Int("keep", 8, "finished sessions to keep registered")
	kills := flag.Int("kills", 3, "maximum preemptions per run (with -mode kill)")
	maxV := flag.Int64("max", 50_000_000, "V-instruction budget per run (0 = unlimited)")
	linger := flag.Bool("linger", true, "keep serving the plane after a finite sweep until interrupted")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "log format: text | json")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ildpmon:", err)
		os.Exit(2)
	}
	machines, err := experiments.ParseMachines(*machinesFlag)
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	wl, err := workload.ByName(*wlName, *scale)
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	if *mode != "chaos" && *mode != "kill" {
		logger.Error("unknown -mode (want chaos or kill)", "mode", *mode)
		os.Exit(1)
	}

	plane := telemetry.New(telemetry.Options{Logger: logger})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error(err.Error())
		os.Exit(1)
	}
	fmt.Printf("telemetry:          serving on http://%s\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, plane.Handler()); err != nil && !errors.Is(err, net.ErrClosed) {
			logger.Error("telemetry server failed", "err", err)
		}
	}()
	plane.SetReady(true)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var finished []*telemetry.Session
	var runs, failures int
	for i := 0; ctx.Err() == nil && (*iterations == 0 || i < *iterations); i++ {
		seed := *seedBase + uint64(i)
		m := machines[i%len(machines)]
		reg := metrics.NewRegistry()
		sess := plane.Register(telemetry.SessionConfig{
			Name:     fmt.Sprintf("%s-%d", *mode, seed),
			Workload: wl.Name, Machine: m.String(), Registry: reg,
		})
		tune := func(cfg *vm.Config) { cfg.Poll = sess.Poll }
		attach := func(v *vm.VM) { sess.Attach(v, nil) }

		runs++
		start := time.Now()
		var mismatch string
		var runErr error
		switch *mode {
		case "chaos":
			out, err := experiments.RunChaos(experiments.ChaosSpec{
				Workload: wl, Machine: m, Seed: seed, MaxV: *maxV,
				Metrics: reg, Tune: tune, Attach: attach,
			})
			runErr = err
			if err == nil {
				mismatch = out.Mismatch
				logger.Info("chaos run done", "seed", seed, "machine", m.String(),
					"faults", out.Faults.Total(), "recoveries", out.VM.Recoveries(),
					"quarantines", out.VM.Quarantines, "elapsed", time.Since(start))
			}
		case "kill":
			out, err := experiments.RunKillResume(experiments.KillResumeSpec{
				Workload: wl, Machine: m, Seed: seed, Kills: *kills, MaxV: *maxV,
				Metrics: reg, Tune: tune, Attach: attach,
			})
			runErr = err
			if err == nil {
				mismatch = out.Mismatch
				logger.Info("kill-resume run done", "seed", seed, "machine", m.String(),
					"kills", out.Kills, "segments", out.Segments,
					"ckpt_bytes", out.CkptBytes, "elapsed", time.Since(start))
			}
		}
		sess.Finish()
		switch {
		case runErr != nil:
			failures++
			logger.Error("run failed", "seed", seed, "machine", m.String(), "err", runErr)
		case mismatch != "":
			failures++
			logger.Error("state diverged", "seed", seed, "machine", m.String(), "mismatch", mismatch)
		}

		finished = append(finished, sess)
		for len(finished) > *keep {
			plane.Deregister(finished[0])
			finished = finished[1:]
		}
		if *interval > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(*interval):
			}
		}
	}

	logger.Info("sweep finished", "mode", *mode, "runs", runs, "failures", failures)
	if *linger && ctx.Err() == nil {
		logger.Info("telemetry plane still serving; interrupt to exit", "addr", ln.Addr().String())
		<-ctx.Done()
	}
	ln.Close()
	plane.Close()
	if failures > 0 {
		os.Exit(1)
	}
}
