// Command accbench is the host-speed benchmark of the accdbt system: it
// measures how fast the product runs on the host, end to end and layer
// by layer, while checking every output against an independent oracle.
// The paper's simulated numbers (IPC, expansion, work units) are the
// reproduction's results and are only checked here, never scored.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload vm-warm --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seconds 5
//
// Each workload runs in a child process (a re-exec of this binary with
// GOMAXPROCS equal to the CPU count), so its peak RSS and GC state
// belong to it alone. The last line of standard output is the result
// object {"correct", "attempted", "failed", "metrics"}; the line before
// it is a detail object carrying the host, seed, supporting numbers and
// the determinism counts. With --trace 1 the workload is traced and the
// metrics are the per-layer ones; the spans are written as Chrome
// trace-event JSON (Perfetto opens it) with a per-layer table beside it.
// README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childEnv marks a process as a workload child.
const childEnv = "ACCBENCH_CHILD"

// childTimeout bounds one workload child; a run must end well within the
// three minutes a benchmark invocation is allowed.
const childTimeout = 170 * time.Second

// traceDir is where a traced run writes its Chrome trace and layer
// table, relative to the repository root the benchmark runs from.
const traceDir = ".bench_build/trace"

// fig8Report is the committed experiment report sim-fig8 checks seed 0
// against.
const fig8Report = "reports/experiments-scale2.json"

// options are the flags shared by the parent and its children.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("accbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 0, "input seed: picks data sets and orders (0 is the paper's canonical data)")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.workload != "all" && findWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	return o, nil
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain runs one workload in this process and writes its result as
// one JSON line.
func childMain(args []string, stdout io.Writer) int {
	o, err := parseOptions(args)
	if err != nil || o.workload == "all" {
		fmt.Fprintln(os.Stderr, "accbench child: bad arguments:", err)
		return 2
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "accbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "accbench child:", err)
		return 1
	}
	return 0
}

// result is what a workload child reports to its parent.
type result struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Detail    map[string]float64 `json:"detail"`
	Counts    map[string]uint64  `json:"counts"`
	MaxProcs  int                `json:"gomaxprocs"`
}

// metricValue is one entry of the printed result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// final is the last line of standard output.
type final struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the line printed before the final one: everything a
// before/after pair needs to be matched to its machine and checked for
// determinism.
type detail struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    int                `json:"trace"`
	Host     hostInfo           `json:"host"`
	FailFrac float64            `json:"fail_frac"`
	Failures []string           `json:"failures,omitempty"`
	Detail   map[string]float64 `json:"detail"`
	Counts   map[string]uint64  `json:"counts"`
}

type hostInfo struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// parentMain runs each requested workload in its own child process and
// prints the results. It exits non-zero if any check failed.
func parentMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintln(stderr, "accbench:", err)
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	code := 0
	for _, name := range names {
		co := o
		co.workload = name
		res, rss, err := runChild(co, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "accbench: %s: %v\n", name, err)
			return 1
		}
		res.Detail["peak_rss_run_mb"] = float64(rss) / (1 << 20)
		fin := assemble(co, res)
		d := detail{
			Workload: name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
			Host:     host(res.MaxProcs),
			FailFrac: float64(fin.Failed) / float64(fin.Attempted),
			Failures: res.Failures, Detail: res.Detail, Counts: res.Counts,
		}
		printTable(stderr, name, fin, d)
		enc := json.NewEncoder(stdout)
		if err := enc.Encode(d); err != nil {
			fmt.Fprintln(stderr, "accbench:", err)
			return 1
		}
		if err := enc.Encode(fin); err != nil {
			fmt.Fprintln(stderr, "accbench:", err)
			return 1
		}
		if !fin.Correct {
			code = 1
		}
	}
	return code
}

// runChild re-executes this binary for one workload and returns its
// result and its lifetime peak resident set size in bytes.
func runChild(o options, stderr io.Writer) (*result, int64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{
		"--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace),
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, 0, fmt.Errorf("child exceeded %v", childTimeout)
		}
		return nil, 0, fmt.Errorf("child: %w", err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, 0, fmt.Errorf("child result: %w", err)
	}
	if res.Attempted < 1 {
		return nil, 0, errors.New("child attempted no operations")
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss * 1024 // Linux reports kilobytes
	}
	return &res, rss, nil
}

// assemble builds the printed result: the end-to-end metrics or,
// traced, the per-layer ones.
func assemble(o options, res *result) final {
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	fin := final{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range defs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			// A metric the workload failed to produce is a benchmark bug;
			// report it rather than print a made-up value.
			fin.Correct = false
			fin.Failed++
			res.Failures = append(res.Failures, "metric not measured: "+m.Name)
			continue
		}
		fin.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return fin
}

// host describes the machine for the detail line.
func host(maxProcs int) hostInfo {
	return hostInfo{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: maxProcs, GoVersion: runtime.Version()}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printTable writes a human-readable summary to w.
func printTable(w io.Writer, name string, fin final, d detail) {
	fmt.Fprintf(w, "== %s (seed %d, %ds, trace %d) on %s, %d CPUs\n",
		name, d.Seed, d.Seconds, d.Trace, d.Host.CPU, d.Host.NProc)
	keys := make([]string, 0, len(fin.Metrics))
	for k := range fin.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, fin.Metrics[k].Value, fin.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "  %d attempted, %d failed (fail_frac %.4f)\n", fin.Attempted, fin.Failed, d.FailFrac)
	for _, f := range d.Failures {
		fmt.Fprintln(w, "  FAIL:", f)
	}
}
