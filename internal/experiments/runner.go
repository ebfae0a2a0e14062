// Package experiments reproduces every table and figure of the paper's
// evaluation (§4): translated-code statistics (Table 2), translation
// overhead (§4.2), chaining-method mispredictions and instruction-count
// expansion (Figs. 4-5), code-straightening IPC (Fig. 6), output-usage
// statistics (Fig. 7), the headline IPC comparison (Fig. 8), and the
// machine-parameter sensitivity sweep (Fig. 9).
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"

	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/ildp"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/uarch"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// Machine selects one of the four simulated machines of §4.1.
type Machine uint8

const (
	// Original: native Alpha on the out-of-order superscalar (no DBT).
	Original Machine = iota
	// Straightened: the code-straightening-only DBT on the superscalar.
	Straightened
	// ILDPBasic: the basic accumulator ISA on the ILDP microarchitecture.
	ILDPBasic
	// ILDPModified: the modified accumulator ISA on the ILDP
	// microarchitecture.
	ILDPModified
)

var machineNames = [...]string{"original", "straightened", "ildp-basic", "ildp-modified"}

// String returns the machine's name as the CLIs spell it
// ("ildp-modified").
func (m Machine) String() string {
	if int(m) < len(machineNames) {
		return machineNames[m]
	}
	return "machine?"
}

// ParseMachine returns the machine String spells as name.
func ParseMachine(name string) (Machine, error) {
	for m, n := range machineNames {
		if n == name {
			return Machine(m), nil
		}
	}
	return 0, fmt.Errorf("experiments: unknown machine %q (want %s)", name, strings.Join(machineNames[:], ", "))
}

// ParseMachines parses a comma-separated list of machine names, or
// "all" for every machine in §4.1's order.
func ParseMachines(list string) ([]Machine, error) {
	if list == "all" {
		list = strings.Join(machineNames[:], ",")
	}
	var out []Machine
	for _, name := range strings.Split(list, ",") {
		m, err := ParseMachine(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("%w, or all", err)
		}
		out = append(out, m)
	}
	return out, nil
}

// RunSpec describes one simulation run.
type RunSpec struct {
	Workload *workload.Spec
	Machine  Machine
	Chain    translate.ChainMode
	NumAcc   int   // accumulators (default 4)
	PEs      int   // ILDP processing elements (default 8)
	CommLat  int64 // ILDP global wire latency (default 0)
	SmallD   bool  // 8KB 2-way D-cache instead of 32KB 4-way
	FuseMem  bool  // §4.5 extension: unsplit memory operations
	NoHWRAS  bool  // disable the conventional RAS (Fig. 6 variants)
	Timing   bool  // attach the timing model
	MaxV     int64 // V-instruction budget (0 = run to completion)

	HotThreshold int // default 50 (the paper's threshold)
	MaxSB        int // maximum superblock size (default 200)
	RASSize      int // dual-address RAS entries (default 16)

	// Metrics, when non-nil, receives the run's fragment lifecycle
	// events during execution plus the aggregate VM statistics and (for
	// timed runs) the timing-model summary at the end. Collection never
	// changes simulation results.
	Metrics *metrics.Registry

	// Prof, when non-nil, is attached to both the VM and the timing
	// model so the run's fragment activity and cycle attribution land in
	// one execution profile. Profiling never changes simulation results.
	Prof *prof.Profiler

	// Tune, when non-nil, receives the fully built VM configuration
	// immediately before the VM is constructed. It is the attachment
	// point for observability hooks (vm.Config.Poll) and must not
	// change translation semantics.
	Tune func(*vm.Config)

	// Attach, when non-nil, receives the constructed VM after the
	// program is loaded and before it runs, on the goroutine that will
	// run it — where telemetry sessions install their probes.
	Attach func(*vm.VM)
}

// Outcome is the result of one run.
type Outcome struct {
	Spec   RunSpec
	VM     vm.Stats
	Timing uarch.Result
	PEDist []float64
}

// Run executes one simulation.
func Run(spec RunSpec) (*Outcome, error) {
	prog, err := spec.Workload.Program()
	if err != nil {
		return nil, err
	}
	r, err := spec.execute(prog, nil, nil)
	if err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, fmt.Errorf("%s on %v: %w", spec.Workload.Name, spec.Machine, r.err)
	}
	out := &r.out
	if spec.Metrics != nil {
		out.VM.Publish(spec.Metrics)
		if spec.Timing {
			prefix := "uarch.ildp"
			if r.model.OoO != nil {
				prefix = "uarch.ooo"
			}
			out.Timing.Publish(spec.Metrics, prefix)
		}
	}
	return out, nil
}

// run is one executed RunSpec: its Outcome, the VM as the run left it,
// the machine's timing model, and the error vm.Run returned.
type run struct {
	out   Outcome
	vm    *vm.VM
	model Model
	err   error
}

// execute is the one path from a RunSpec to a finished run, shared by
// Run, RunChaos and every RunKillResume segment. It builds the VM
// configuration and the machine, applies the caller's own settings
// (edit) and then Tune, boots the VM from prog — or restores it from
// st when st is non-nil — hands it to Attach, runs it to s.MaxV, and
// finishes the timing model and then the profiler. The returned error
// means the run never started; the run's own error is in run.err.
func (s RunSpec) execute(prog *alphaprog.Program, st *checkpoint.State, edit func(*vm.Config)) (*run, error) {
	if s.NumAcc <= 0 {
		s.NumAcc = ildp.DefaultAccumulators
	}
	if s.PEs <= 0 {
		s.PEs = 8
	}
	if s.HotThreshold <= 0 {
		s.HotThreshold = vm.DefaultHotThreshold
	}

	cfg := vm.DefaultConfig()
	cfg.Chain = s.Chain
	cfg.NumAcc = s.NumAcc
	cfg.HotThreshold = s.HotThreshold
	cfg.FuseMemOps = s.FuseMem
	cfg.Metrics = s.Metrics
	cfg.Prof = s.Prof
	if s.MaxSB > 0 {
		cfg.MaxSuperblock = s.MaxSB
	}
	if s.RASSize > 0 {
		cfg.RASSize = s.RASSize
	}
	runsInFlight.Add(1)
	defer runsInFlight.Add(-1)
	model, err := s.Build(&cfg)
	if err != nil {
		return nil, err
	}
	// Finish closes the model's record pipe on the normal path; this
	// closes it on the others (a LoadProgram error, a panic out of the
	// VM or the model), so its goroutine never outlives the run.
	defer model.close()
	if edit != nil {
		edit(&cfg)
	}
	if s.Tune != nil {
		s.Tune(&cfg)
	}

	v := vm.New(mem.New(), cfg)
	if st != nil {
		v.Restore(st)
	} else if err := v.LoadProgram(prog); err != nil {
		return nil, err
	}
	if s.Attach != nil {
		s.Attach(v)
	}
	r := &run{vm: v, model: model, err: v.Run(s.MaxV)}
	r.out = Outcome{Spec: s, VM: v.Stats}
	r.out.Timing, r.out.PEDist = model.Finish()
	s.Prof.Finish()
	return r, nil
}

// runsInFlight counts the runs executing in this process, such as
// perWorkload's concurrent evaluations. Build reads it to leave a
// record pipe out when the runs already keep every CPU busy.
var runsInFlight atomic.Int32

// Model is the timing model a machine was built with: the out-of-order
// superscalar or the ILDP core. At most one is set, and neither when
// the run is untimed. Only Finish may read the model's state once the
// run has started: with a record pipe, the model runs on the pipe's
// goroutine until then.
type Model struct {
	OoO  *uarch.OoO
	ILDP *uarch.ILDP

	// pipe, when non-nil, is the VM's sink: it feeds the model on a
	// goroutine of its own.
	pipe *trace.Pipe
}

// Finish ends the run's record stream and returns the model's timing
// result and, for the ILDP core, its PE distribution; both are zero
// for an untimed run. A panic in the model during the run reaches
// Finish's caller with the same value.
func (m Model) Finish() (uarch.Result, []float64) {
	if m.pipe != nil {
		if r := m.pipe.Close(); r != nil {
			panic(r)
		}
	}
	switch {
	case m.OoO != nil:
		return m.OoO.Finish(), nil
	case m.ILDP != nil:
		return m.ILDP.Finish(), m.ILDP.PEDistribution()
	}
	return uarch.Result{}, nil
}

// close stops the record pipe, if there is one, and drops a panic from
// the model: it is for exit paths on which the run has already failed.
func (m Model) close() {
	if m.pipe != nil {
		m.pipe.Close()
	}
}

// Build configures cfg for s.Machine and, when s.Timing is set, builds
// and attaches the matching timing model with s.Prof as its profiler.
// It is the one machine builder: Run, the harnesses and ildpvm all
// model their machines here, so they model them identically.
//
// A timed run with no profiler feeds its model through a trace.Pipe
// when GOMAXPROCS leaves every run in flight a CPU for its VM and one
// for its model. The model's timing core then runs beside the VM on a
// second goroutine and sees the same records in the same order; its
// fetch stage runs on whichever of the two reaches a record first (see
// trace.Pipe). The caller must call the Model's Finish, which stops
// that goroutine. A profiled run stays on one goroutine: the profiler
// interleaves the VM's fragment events with the model's retire events.
func (s RunSpec) Build(cfg *vm.Config) (Model, error) {
	var m Model
	hook := &cfg.Sink // the VM hook the model listens on
	switch s.Machine {
	case Original:
		// No DBT: interpret everything; the timing model sees the native
		// Alpha stream.
		cfg.HotThreshold = math.MaxInt32
		hook = &cfg.InterpSink
		if s.Timing {
			mc := uarch.DefaultOoO()
			mc.UseHWRAS = !s.NoHWRAS
			m.OoO = uarch.NewOoO(mc)
		}
	case Straightened:
		cfg.Straighten = true
		if s.Timing {
			mc := uarch.DefaultOoO()
			mc.UseHWRAS = false
			// Fig. 6's "straightened without RAS" pairs sw_pred chaining
			// with no return prediction; callers normally pass SWPred.
			mc.DualRASTrace = s.Chain == translate.SWPredRAS && !s.NoHWRAS
			m.OoO = uarch.NewOoO(mc)
		}
	case ILDPBasic, ILDPModified:
		cfg.Form = ildp.Basic
		if s.Machine == ILDPModified {
			cfg.Form = ildp.Modified
		}
		if s.Timing {
			mc := uarch.DefaultILDP()
			mc.PEs = s.PEs
			mc.CommLat = s.CommLat
			mc.DualRASTrace = s.Chain == translate.SWPredRAS
			mc.CacheOpts.Replicas = s.PEs
			if s.SmallD {
				mc.CacheOpts.DSizeBytes = 8 << 10
				mc.CacheOpts.DWays = 2
			}
			m.ILDP = uarch.NewILDP(mc)
		}
	default:
		return m, fmt.Errorf("experiments: unknown machine %v", s.Machine)
	}
	var model interface {
		trace.Sink
		Stages() (trace.Stage, trace.BatchSink)
	}
	switch {
	case m.OoO != nil:
		m.OoO.SetProfiler(s.Prof)
		model = m.OoO
	case m.ILDP != nil:
		m.ILDP.SetProfiler(s.Prof)
		model = m.ILDP
	default:
		return m, nil
	}
	if procs := runtime.GOMAXPROCS(0); s.Prof == nil && procs > 1 && 2*int(runsInFlight.Load()) <= procs {
		m.pipe = trace.NewPipe(model.Stages())
		*hook = m.pipe
	} else {
		*hook = model
	}
	return m, nil
}

// harnessMachine is the machine the differential harnesses (chaos,
// kill-and-resume) run on: m under Run's defaults, with sw_pred.ras
// chaining and 8 PEs.
func harnessMachine(m Machine, timing bool) RunSpec {
	return RunSpec{Machine: m, Chain: translate.SWPredRAS, PEs: 8, Timing: timing}
}

// MustRun is Run for drivers where errors are programming bugs.
func MustRun(spec RunSpec) *Outcome {
	out, err := Run(spec)
	if err != nil {
		panic(err)
	}
	return out
}
