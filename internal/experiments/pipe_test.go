package experiments

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// withProcs sets GOMAXPROCS to n, and restores it when the test ends.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// modelHook returns the VM sink a machine's model listens on.
func modelHook(m Machine, cfg *vm.Config) *trace.Sink {
	if m == Original {
		return &cfg.InterpSink
	}
	return &cfg.Sink
}

// tapSink wraps the model's VM sink with wrap, after checking that the
// machine built it as a pipe exactly when piped is set.
func tapSink(t *testing.T, spec *RunSpec, piped bool, wrap func(trace.Sink) trace.Sink) {
	t.Helper()
	spec.Tune = func(cfg *vm.Config) {
		h := modelHook(spec.Machine, cfg)
		if _, ok := (*h).(*trace.Pipe); ok != piped {
			t.Errorf("%s on %v: piped = %v, want %v", spec.Workload.Name, spec.Machine, ok, piped)
		}
		if wrap != nil {
			*h = wrap(*h)
		}
	}
}

// waitGoroutines waits until at most want goroutines run: a goroutine
// that has signalled its exit can take a moment to leave the count.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestPipeEquivalence runs timed specs synchronously (GOMAXPROCS 1) and
// through the record pipe (GOMAXPROCS 2): the Outcomes must be equal.
func TestPipeEquivalence(t *testing.T) {
	kernels := []string{"gzip", "mcf", "vortex"}
	if testing.Short() {
		kernels = kernels[:1]
	}
	var specs []RunSpec
	for _, name := range kernels {
		w, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Machine{Original, Straightened, ILDPBasic, ILDPModified} {
			spec := RunSpec{Workload: w, Machine: m, Timing: true}
			if m != Original {
				spec.Chain = translate.SWPredRAS
			}
			specs = append(specs, spec)
		}
	}
	gzip := specs[0].Workload
	specs = append(specs,
		RunSpec{Workload: gzip, Machine: ILDPModified, Chain: translate.SWPredRAS, Timing: true, SmallD: true},
		RunSpec{Workload: gzip, Machine: ILDPModified, Chain: translate.SWPredRAS, Timing: true, CommLat: 2},
		RunSpec{Workload: gzip, Machine: ILDPBasic, Chain: translate.SWPredRAS, Timing: true, FuseMem: true},
		RunSpec{Workload: gzip, Machine: Original, Timing: true, NoHWRAS: true},
		RunSpec{Workload: gzip, Machine: Straightened, Chain: translate.SWPredRAS, Timing: true, NoHWRAS: true},
		// Budgets that stop early: within the first batch, and a few
		// batches in.
		RunSpec{Workload: gzip, Machine: ILDPModified, Chain: translate.SWPredRAS, Timing: true, MaxV: 1_000},
		RunSpec{Workload: gzip, Machine: Straightened, Chain: translate.SWPredRAS, Timing: true, MaxV: 20_000},
	)
	withProcs(t, 1)
	partial := 0
	for _, spec := range specs {
		runtime.GOMAXPROCS(1)
		tapSink(t, &spec, false, nil)
		want := runOutcome(t, spec)
		runtime.GOMAXPROCS(2)
		tapSink(t, &spec, true, nil)
		got := runOutcome(t, spec)

		if got.Timing != want.Timing || !reflect.DeepEqual(got.PEDist, want.PEDist) || got.VM != want.VM {
			t.Errorf("%s on %v %+v: piped outcome differs from synchronous:\n got %+v %v\nwant %+v %v",
				spec.Workload.Name, spec.Machine, spec, got.Timing, got.PEDist, want.Timing, want.PEDist)
		}
		if got.Timing.Insts == 0 {
			t.Errorf("%s on %v: no records reached the model", spec.Workload.Name, spec.Machine)
		}
		if got.Timing.Insts%trace.PipeBatch != 0 {
			partial++
		}
	}
	if partial == 0 {
		t.Error("no run ended on a partial batch")
	}
}

// runOutcome executes spec like Run, but also returns the Outcome of a
// run that its MaxV budget stopped.
func runOutcome(t *testing.T, spec RunSpec) *Outcome {
	t.Helper()
	prog, err := spec.Workload.Program()
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.execute(prog, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.err != nil && !(spec.MaxV > 0 && errors.Is(r.err, vm.ErrBudget)) {
		t.Fatalf("%s on %v: %v", spec.Workload.Name, spec.Machine, r.err)
	}
	return &r.out
}

// TestPipeSkippedWhenProfiled: a profiled run keeps its model on the
// VM's goroutine, because the profiler interleaves VM and model events.
func TestPipeSkippedWhenProfiled(t *testing.T) {
	withProcs(t, 2)
	w, err := workload.ByName("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{Workload: w, Machine: ILDPModified, Chain: translate.SWPredRAS, Timing: true,
		MaxV: 5_000, Prof: prof.New(prof.Config{})}
	tapSink(t, &spec, false, nil)
	runOutcome(t, spec)
}

// TestPipeSkippedWhenCPUsBusy: a run takes a pipe only when GOMAXPROCS
// leaves each run in flight two CPUs, as when perWorkload's evaluations
// already keep every CPU busy.
func TestPipeSkippedWhenCPUsBusy(t *testing.T) {
	w, err := workload.ByName("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	runsInFlight.Add(1) // another run in flight
	defer runsInFlight.Add(-1)
	for _, tc := range []struct {
		procs int
		piped bool
	}{{2, false}, {3, false}, {4, true}} {
		withProcs(t, tc.procs)
		spec := RunSpec{Workload: w, Machine: ILDPModified, Chain: translate.SWPredRAS, Timing: true, MaxV: 5_000}
		tapSink(t, &spec, tc.piped, nil)
		runOutcome(t, spec)
	}
}

// corruptSink forwards records, giving record at an out-of-range
// source register, which the OoO model indexes its register file by.
type corruptSink struct {
	next trace.Sink
	n    int
	at   int
}

func (c *corruptSink) Append(r trace.Rec) {
	if c.n++; c.n == c.at {
		r.SrcReg[0] = 98
	}
	c.next.Append(r)
}

// recoverRun runs spec and returns what it panicked with.
func recoverRun(spec RunSpec) (v any) {
	defer func() { v = recover() }()
	Run(spec)
	return nil
}

// TestPipeModelPanic corrupts an early record so that the model panics
// on the pipe's goroutine. Run's caller must get the panic value that
// the synchronous path raises, after the VM ran to the end with the
// pipe draining every later batch, and no goroutine may be left.
func TestPipeModelPanic(t *testing.T) {
	w, err := workload.ByName("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	spec := RunSpec{Workload: w, Machine: Original, Timing: true}
	var last *corruptSink
	corrupt := func(s trace.Sink) trace.Sink {
		last = &corruptSink{next: s, at: 10}
		return last
	}

	withProcs(t, 1)
	tapSink(t, &spec, false, corrupt)
	want := recoverRun(spec)
	runtime.GOMAXPROCS(2)
	tapSink(t, &spec, true, corrupt)
	got := recoverRun(spec)

	if err, ok := want.(runtime.Error); !ok || !strings.Contains(err.Error(), "index out of range [98]") {
		t.Fatalf("synchronous run panicked with %v, want an index error", want)
	}
	if got != want {
		t.Errorf("piped run panicked with %#v, want %#v", got, want)
	}
	if last.n < 10*trace.PipeBatch {
		t.Errorf("the VM sent %d records; the test needs many more batches than the pipe holds", last.n)
	}
	waitGoroutines(t, base)
}

// TestPipeClosedOnError ends a piped run on its error and panic paths —
// a LoadProgram error, and a panic out of vm.Run that is not a
// SemanticsError — and checks that the pipe's goroutine is gone.
func TestPipeClosedOnError(t *testing.T) {
	withProcs(t, 2)
	w, err := workload.ByName("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	spec := RunSpec{Workload: w, Machine: ILDPModified, Chain: translate.SWPredRAS, Timing: true}
	tapSink(t, &spec, true, nil)
	tune := spec.Tune
	spec.Tune = func(cfg *vm.Config) {
		tune(cfg)
		cfg.MaxPages = 1 // the program image needs more
	}
	var rf *mem.ResourceFault
	if _, err := Run(spec); !errors.As(err, &rf) {
		t.Fatalf("Run with a one-page limit: %v, want a ResourceFault from LoadProgram", err)
	}
	waitGoroutines(t, base)

	spec = RunSpec{Workload: w, Machine: ILDPModified, Chain: translate.SWPredRAS, Timing: true}
	tapSink(t, &spec, true, func(s trace.Sink) trace.Sink {
		return trace.Multi{s, &panicSink{at: 3*trace.PipeBatch + 5}}
	})
	if got := recoverRun(spec); got != errVMPanic {
		t.Fatalf("Run panicked with %v, want %v", got, errVMPanic)
	}
	waitGoroutines(t, base)
}

// errVMPanic is what panicSink panics with on the VM's goroutine.
var errVMPanic = &struct{ msg string }{"VM-side sink failed"}

// panicSink panics on its at-th record.
type panicSink struct{ n, at int }

func (p *panicSink) Append(trace.Rec) {
	if p.n++; p.n == p.at {
		panic(errVMPanic)
	}
}
