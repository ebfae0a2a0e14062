// Command ildpserve runs the multi-tenant VM service: an HTTP server
// that accepts Alpha program images, schedules each admitted session as
// a preemptible VM over a bounded worker pool (one V-instruction
// quantum at a time, checkpointing on deschedule), and serves the live
// telemetry plane alongside the session API.
//
// Endpoints:
//
//	POST   /sessions                submit an alphaprog image (body) or ?workload=NAME[&scale=N][&seed=N]
//	GET    /sessions                list sessions
//	GET    /sessions/{id}[?wait=ms] session state, optionally long-polling for completion
//	GET    /sessions/{id}/checkpoint  final architected state (encoded checkpoint)
//	DELETE /sessions/{id}           kill a session
//	GET    /stats                   scheduler snapshot (queue depth, latency quantiles)
//	GET    /metrics /events /vms /healthz /readyz   telemetry plane (DESIGN.md §13)
//
// Admission is bounded: beyond -max-sessions (or a tenant's
// -tenant-quota or -tenant-pages) submissions receive typed 429s;
// during drain they receive 503s. On SIGINT/SIGTERM the server drains
// gracefully — it stops admitting, preempts every running quantum at a
// V-instruction boundary, checkpoints all unfinished sessions into
// -spill, and exits 0; a successor started with -resume-dir re-admits
// them and continues bit-identically (DESIGN.md §14).
//
// Hostile-world hardening (DESIGN.md §15): -max-pages governs each
// guest's resident page count (a memory bomb dies with a typed
// resource failure at its precise V-PC), -bundle-dir records every
// session failure as a replayable flight-recorder bundle, and
// -io-chaos injects deterministic disk faults on the spill path for
// chaos drills — all spill, checkpoint, and bundle writes are atomic
// (write-temp-rename), so a torn file is never parsed as state.
//
// Usage:
//
//	ildpserve -addr 127.0.0.1:9855 -spill /var/tmp/ildp-spill
//	ildpserve -addr 127.0.0.1:9855 -spill d -resume-dir d   # successor
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/ildp/accdbt/internal/iofs"
	"github.com/ildp/accdbt/internal/serve"
	"github.com/ildp/accdbt/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9855", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	quantum := flag.Int64("quantum", serve.DefaultQuantumVInsts, "scheduler quantum in V-instructions")
	maxSessions := flag.Int("max-sessions", serve.DefaultMaxSessions, "bound on live sessions (admission beyond it is a 429)")
	tenantQuota := flag.Int("tenant-quota", 0, "bound on live sessions per tenant (0 = unlimited)")
	budget := flag.Int64("budget", 0, "per-session cumulative V-instruction budget (0 = unlimited)")
	timeout := flag.Duration("timeout", 0, "per-session wall-clock lifetime (0 = unlimited)")
	quantumWall := flag.Duration("quantum-wall", time.Second, "per-quantum wall-clock safety net (0 = off)")
	maxResident := flag.Int("max-resident", 0, "bound on sessions held in memory between quanta before the coldest spill (0 = unlimited)")
	spillDir := flag.String("spill", "", "spill directory for overload shedding and graceful drain")
	resumeDir := flag.String("resume-dir", "", "re-admit sessions a previous server drained into this directory")
	maxPages := flag.Int("max-pages", 0, "per-session guest page limit; exceeding it is a typed resource kill (0 = ungoverned)")
	tenantPages := flag.Int("tenant-pages", 0, "bound on resident guest pages per tenant: admission beyond it is a 429, growth past it a typed kill (0 = unlimited)")
	bundleDir := flag.String("bundle-dir", "", "write a flight-recorder repro bundle here for every session failure (replay with ildpchaos -replay)")
	chaosSeed := flag.Uint64("io-chaos", 0, "inject deterministic I/O faults on the spill path with this seed (0 = off; testing only)")
	chaosRate := flag.Int("io-chaos-rate", 8, "with -io-chaos, mean operations between injected faults")
	chaosKinds := flag.String("io-chaos-kinds", "", "with -io-chaos, comma-separated fault kinds (enospc,eio,torn_write,partial_read,rename_fail; empty = all)")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	logFormat := flag.String("log-format", "text", "log format: text | json")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ildpserve:", err)
		os.Exit(2)
	}

	var fsys iofs.FS
	if *chaosSeed != 0 {
		kinds, err := iofs.Kinds.Parse(*chaosKinds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ildpserve:", err)
			os.Exit(2)
		}
		fsys = iofs.NewFaulty(iofs.OS{}, iofs.Config{
			Seed: *chaosSeed, Rate: *chaosRate, Kinds: kinds,
		})
		fmt.Printf("io-chaos:           seed %d, rate 1/%d\n", *chaosSeed, *chaosRate)
	}

	s := serve.New(serve.Options{
		Workers:         *workers,
		QuantumVInsts:   *quantum,
		MaxSessions:     *maxSessions,
		TenantQuota:     *tenantQuota,
		SessionVBudget:  *budget,
		SessionWall:     *timeout,
		QuantumWall:     *quantumWall,
		MaxResident:     *maxResident,
		SpillDir:        *spillDir,
		SessionMaxPages: *maxPages,
		TenantPageQuota: *tenantPages,
		BundleDir:       *bundleDir,
		FS:              fsys,
		Logger:          logger,
	})

	if *resumeDir != "" {
		resumed, corrupt, err := s.Resume(*resumeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ildpserve: resume:", err)
			os.Exit(1)
		}
		fmt.Printf("resumed:            %d sessions (%d corrupt)\n", resumed, corrupt)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ildpserve:", err)
		os.Exit(1)
	}
	fmt.Printf("serving:            http://%s\n", ln.Addr())
	fmt.Printf("workers:            %d\n", workersOf(*workers))
	fmt.Printf("quantum:            %d V-insts\n", *quantum)

	httpSrv := &http.Server{Handler: s.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "ildpserve:", err)
			os.Exit(1)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("draining:           stop admitting, checkpointing in-flight sessions")
	spilled, err := s.Drain()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ildpserve: drain:", err)
		httpSrv.Close()
		os.Exit(1)
	}
	fmt.Printf("drained:            %d sessions spilled\n", spilled)
	httpSrv.Close()
	s.Close()
}

// workersOf mirrors the server's GOMAXPROCS defaulting for the banner.
func workersOf(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
