package experiments

import (
	"fmt"

	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/uarch"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// ChaosSpec describes one differential chaos run: the workload executes
// twice, once on a pure Alpha interpreter (the oracle) and once on the
// DBT VM with a deterministic fault injector attached and every
// self-healing mechanism forced on (install-time verification, paranoid
// entry re-checks, retranslate-with-backoff / quarantine). The run
// passes only if the faulted VM finishes with architected state
// bit-identical to the oracle: registers, PC, halt/exit status, console
// output, and all of memory.
type ChaosSpec struct {
	Workload *workload.Spec
	Machine  Machine

	// Seed selects the fault schedule (see faultinject.Config.Seed).
	Seed uint64
	// Kinds restricts injection to the listed fault kinds (nil = all).
	Kinds []faultinject.Kind
	// EntryRate / TranslateRate / MaxFaults parameterise the schedule;
	// zero values take the faultinject defaults.
	EntryRate     int
	TranslateRate int
	MaxFaults     int

	// MaxV is a safety budget on both runs (0 = run to completion).
	// Exhausting it is reported as an error, never as a verdict: the
	// oracle only compares completed runs.
	MaxV int64

	// Timing attaches the machine's timing model (and Prof, if set, to
	// both the VM and the model) so cycle conservation can be checked
	// across recovery pseudo-frames.
	Timing  bool
	Metrics *metrics.Registry
	Prof    *prof.Profiler

	// Store, when non-nil, attaches a shared fragment store to the VM.
	// A fault-injected VM bypasses the store entirely (see vm.Config),
	// so the run must be bit-identical with and without one — the field
	// exists precisely so tests can pin that invariant.
	Store *fragstore.Store

	// Tune and Attach are the observability hooks shared with RunSpec:
	// Tune receives the final VM configuration before construction,
	// Attach the loaded VM before it runs. Neither may change
	// translation semantics — the oracle comparison would catch it.
	Tune   func(*vm.Config)
	Attach func(*vm.VM)
}

// ChaosOutcome is the result of one differential chaos run.
type ChaosOutcome struct {
	Spec      ChaosSpec
	VM        vm.Stats
	Timing    uarch.Result
	Faults    faultinject.Counts[faultinject.Kind] // faults actually applied, by kind
	Decisions uint64                               // injector decision points consulted

	// Mismatch is empty when the faulted run's final architected state is
	// bit-identical to the oracle's; otherwise it names the first
	// divergence found.
	Mismatch string
}

// RunChaos executes one differential chaos run. A non-nil error means
// the run could not be compared (assembly failure, an unrecovered fault
// aborting the VM, or the budget expiring); a state divergence is not an
// error — it is reported in Outcome.Mismatch so harnesses can show the
// seed and fault schedule that produced it.
func RunChaos(spec ChaosSpec) (*ChaosOutcome, error) {
	prog, oracle, err := RunOracle(spec.Workload, spec.MaxV)
	if err != nil {
		return nil, fmt.Errorf("chaos oracle (%s): %w", spec.Workload.Name, err)
	}

	rs := harnessMachine(spec.Machine, spec.Timing)
	rs.MaxV, rs.Metrics, rs.Prof = spec.MaxV, spec.Metrics, spec.Prof
	rs.Tune, rs.Attach = spec.Tune, spec.Attach
	r, err := rs.execute(prog, nil, func(cfg *vm.Config) {
		cfg.Verify = true
		cfg.Paranoid = true
		cfg.SelfHeal = true
		cfg.Store = spec.Store
		cfg.Faults = &faultinject.Config{
			Seed:          spec.Seed,
			EntryRate:     spec.EntryRate,
			TranslateRate: spec.TranslateRate,
			Kinds:         spec.Kinds,
			MaxFaults:     spec.MaxFaults,
		}
	})
	if err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, fmt.Errorf("chaos: seed %d, %s on %v: unrecovered fault: %w",
			spec.Seed, spec.Workload.Name, spec.Machine, r.err)
	}

	out := &ChaosOutcome{Spec: spec, VM: r.out.VM, Timing: r.out.Timing}
	out.Faults = r.vm.Injector().Counts()
	out.Decisions = r.vm.Injector().Decisions()
	out.Mismatch = DiffState(r.vm.CPU(), oracle)
	if spec.Metrics != nil {
		out.VM.Publish(spec.Metrics)
	}
	return out, nil
}
