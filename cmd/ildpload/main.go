// Command ildpload is the serving load driver: it simulates many
// concurrent clients submitting guest programs to a running ildpserve,
// long-polling each session to completion, retrying typed 429
// backpressure with backoff, and optionally differentially verifying a
// sample of final checkpoints against the pure-interpreter oracle. It
// prints sessions/sec and the scheduler's quantum/wait latency
// quantiles. Serving throughput as a tracked number is the benchmark's
// serve-http workload; this tool's job is the -verify drive.
//
// Usage:
//
//	ildpserve &
//	ildpload -sessions 200 -clients 32 -verify 10
//	ildpload -addr 127.0.0.1:9855 -sessions 1000
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/serve"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9855", "address of the ildpserve to drive")
	sessions := flag.Int("sessions", 200, "total sessions to submit")
	clients := flag.Int("clients", 32, "concurrent submitting clients")
	scale := flag.Int("scale", 1, "workload scale factor")
	names := flag.String("workloads", "", "comma-separated workload names (default: all)")
	verify := flag.Int("verify", 0, "differentially verify the final checkpoint of every Nth session against the interpreter oracle")
	flag.Parse()

	wls := workload.Names()
	if *names != "" {
		wls = strings.Split(*names, ",")
	}
	if *clients > *sessions {
		*clients = *sessions
	}

	url := "http://" + *addr

	type job struct {
		id       string
		name     string
		seed     uint64
		view     serve.View
		rejected int
	}
	jobs := make([]*job, *sessions)
	for i := range jobs {
		jobs[i] = &job{name: wls[i%len(wls)], seed: uint64(i / len(wls) % 8)}
	}

	var idx, rejections atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(cn int) {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				tenant := fmt.Sprintf("tenant-%d", cn%7)
				// Submit, honoring typed backpressure with backoff.
				for attempt := 0; ; attempt++ {
					resp, err := client.Post(fmt.Sprintf("%s/sessions?workload=%s&scale=%d&seed=%d&tenant=%s",
						url, j.name, *scale, j.seed, tenant), "application/octet-stream", nil)
					if err != nil {
						fatal(err)
					}
					if resp.StatusCode == http.StatusAccepted {
						if err := json.NewDecoder(resp.Body).Decode(&j.view); err != nil {
							fatal(err)
						}
						resp.Body.Close()
						j.id = j.view.ID
						break
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
						j.rejected++
						rejections.Add(1)
						time.Sleep(time.Duration(5*(attempt+1)) * time.Millisecond)
						continue
					}
					fatal(fmt.Errorf("submit %s: HTTP %d", j.name, resp.StatusCode))
				}
				// Long-poll to completion.
				for !j.view.State.Terminal() {
					resp, err := client.Get(url + "/sessions/" + j.id + "?wait=2000")
					if err != nil {
						fatal(err)
					}
					if err := json.NewDecoder(resp.Body).Decode(&j.view); err != nil {
						fatal(err)
					}
					resp.Body.Close()
				}
				if j.view.State != serve.StateDone {
					fatal(fmt.Errorf("session %s (%s): %s: %s", j.id, j.name, j.view.State, j.view.Error))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Scheduler snapshot for the latency quantiles.
	resp, err := client.Get(url + "/stats")
	if err != nil {
		fatal(err)
	}
	var stats serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		fatal(err)
	}
	resp.Body.Close()

	// Differential sample: decode final checkpoints and compare the
	// guest-visible state against an uninterrupted interpreter run.
	verified := 0
	if *verify > 0 {
		for i := 0; i < len(jobs); i += *verify {
			j := jobs[i]
			resp, err := client.Get(url + "/sessions/" + j.id + "/checkpoint")
			if err != nil {
				fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				fatal(fmt.Errorf("checkpoint %s: HTTP %d", j.id, resp.StatusCode))
			}
			st, err := checkpoint.Decode(raw)
			if err != nil {
				fatal(fmt.Errorf("checkpoint %s: %w", j.id, err))
			}
			if err := verifyAgainstOracle(st, j.name, *scale, j.seed); err != nil {
				fatal(fmt.Errorf("DIVERGENCE session %s (%s seed=%d): %w", j.id, j.name, j.seed, err))
			}
			verified++
		}
	}

	sps := float64(*sessions) / elapsed.Seconds()
	quantaPerSession := float64(stats.Quanta) / float64(*sessions)
	fmt.Printf("sessions:           %d across %d clients (%d workers)\n", *sessions, *clients, stats.Workers)
	fmt.Printf("wall time:          %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("throughput:         %.1f sessions/sec\n", sps)
	fmt.Printf("quanta:             %d (%.1f per session)\n", stats.Quanta, quantaPerSession)
	fmt.Printf("quantum latency:    p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
		stats.QuantumP50ms, stats.QuantumP95ms, stats.QuantumP99ms)
	fmt.Printf("queue wait:         p50 %.2f ms, p99 %.2f ms\n", stats.WaitP50ms, stats.WaitP99ms)
	fmt.Printf("backpressure:       %d retried rejections\n", rejections.Load())
	if *verify > 0 {
		fmt.Printf("verified:           %d of %d final states (1 in %d) bit-identical to interpreter oracle\n",
			verified, *sessions, *verify)
	}
}

// verifyAgainstOracle replays the program on the pure interpreter and
// compares every guest-visible field of the served final checkpoint.
func verifyAgainstOracle(st *checkpoint.State, name string, scale int, seed uint64) error {
	spec, err := workload.ByNameSeeded(name, scale, seed)
	if err != nil {
		return err
	}
	_, oracle, err := experiments.RunOracle(spec, 1_000_000_000)
	if err != nil {
		return err
	}
	served := vm.New(mem.New(), vm.DefaultConfig())
	served.Restore(st)
	if d := experiments.DiffState(served.CPU(), oracle); d != "" {
		return errors.New(d)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ildpload:", err)
	os.Exit(1)
}
