package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// KillResumeSpec describes one kill-and-resume differential run: the
// workload executes once on a pure Alpha interpreter (the oracle), then
// on the DBT VM with seed-chosen preemption points. At each point the VM
// is stopped through the Stop hook, checkpointed, the checkpoint is
// encoded/decoded (with determinism and canonical-identity checks), and
// execution resumes in a completely fresh VM — cold translation cache,
// empty trace counters, zeroed RAS and accumulators. The run passes only
// if the final architected state is bit-identical to the oracle's and
// the cumulative Stats reconcile across segments.
type KillResumeSpec struct {
	Workload *workload.Spec
	Machine  Machine

	// Seed drives the kill schedule: the number of kills (1..Kills) and
	// the retired-V-instruction counts at which they fire.
	Seed uint64

	// Kills bounds the kills per run (0 or 1 = exactly one).
	Kills int

	// MaxV is a safety budget per segment (0 = run to completion).
	MaxV int64

	// Timing attaches a fresh timing model and profiler to every
	// segment and checks cycle conservation — including the preempt
	// pseudo-frame — segment by segment.
	Timing  bool
	Metrics *metrics.Registry

	// Store, when non-nil, attaches a shared fragment store to every
	// segment's VM. Each resumed segment boots with a cold private
	// translation cache but a warm store, so superblocks the schedule
	// re-encounters translate once per run instead of once per segment.
	// The final architected state must stay bit-identical to the
	// store-less run — the store changes where artifacts live, never
	// what they compute.
	Store *fragstore.Store

	// Tune and Attach are the observability hooks shared with RunSpec,
	// invoked for every segment: Tune receives the segment's final VM
	// configuration before construction, Attach the booted (or
	// restored) VM before it runs. Neither may change translation
	// semantics.
	Tune   func(*vm.Config)
	Attach func(*vm.VM)
}

// KillResumeOutcome is the result of one kill-and-resume run.
type KillResumeOutcome struct {
	Spec KillResumeSpec

	Kills       int      // preemptions actually taken
	Segments    int      // VM instances run (Kills+1 unless the run halted early)
	KillTargets []uint64 // retired-V-instruction counts the schedule aimed at
	CkptBytes   int      // size of the last checkpoint encoding

	// VM is the final cumulative Stats, carried across segments through
	// the checkpoint counters.
	VM vm.Stats

	// Mismatch is empty when the resumed run's final architected state
	// is bit-identical to the oracle's and the accounting reconciles;
	// otherwise it names the first divergence found.
	Mismatch string
}

// RunKillResume executes one kill-and-resume differential run. A
// non-nil error means the run could not be compared (assembly failure,
// an unexpected VM error, a non-deterministic or non-idempotent
// checkpoint encoding, or a broken cycle-conservation invariant); a
// final-state divergence is not an error — it is reported in
// Outcome.Mismatch.
func RunKillResume(spec KillResumeSpec) (*KillResumeOutcome, error) {
	// The oracle: the same program, purely interpreted, never disturbed.
	prog, oracle, err := RunOracle(spec.Workload, spec.MaxV)
	if err != nil {
		return nil, fmt.Errorf("kill-resume oracle (%s): %w", spec.Workload.Name, err)
	}
	total := oracle.InstCount
	if total < 2 {
		return nil, fmt.Errorf("kill-resume: workload %s too short to kill (%d insts)",
			spec.Workload.Name, total)
	}

	// The kill schedule: 1..Kills distinct retirement counts in
	// [1, total-1], so every kill lands strictly inside the run.
	maxKills := spec.Kills
	if maxKills <= 0 {
		maxKills = 1
	}
	rng := faultinject.Rand(spec.Seed)
	nk := 1 + int(rng.Next()%uint64(maxKills))
	if uint64(nk) > total-1 {
		nk = int(total - 1)
	}
	targetSet := map[uint64]bool{}
	for len(targetSet) < nk {
		targetSet[1+rng.Next()%(total-1)] = true
	}
	targets := make([]uint64, 0, len(targetSet))
	for tgt := range targetSet {
		targets = append(targets, tgt)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	out := &KillResumeOutcome{Spec: spec, KillTargets: targets}

	rs := harnessMachine(spec.Machine, spec.Timing)
	rs.MaxV, rs.Metrics, rs.Tune = spec.MaxV, spec.Metrics, spec.Tune
	// The stop hook reads the running segment's VM, which Attach hands
	// over before the run.
	var v *vm.VM
	rs.Attach = func(vv *vm.VM) {
		v = vv
		if spec.Attach != nil {
			spec.Attach(vv)
		}
	}
	var st *checkpoint.State // nil = first segment boots from the program image
	ti := 0
	for {
		if spec.Timing {
			rs.Prof = prof.New(prof.Config{})
		}
		// -1 disarms the stop hook for the final segment.
		target := int64(-1)
		if ti < len(targets) {
			target = int64(targets[ti])
		}
		r, err := rs.execute(prog, st, func(cfg *vm.Config) {
			cfg.Store = spec.Store
			cfg.Stop = func() bool {
				return target >= 0 && int64(v.Stats.TotalVInsts()) >= target
			}
		})
		if err != nil {
			return nil, err
		}
		out.Segments++

		if spec.Timing {
			if err := rs.Prof.Profile().CheckConservation(r.out.Timing.Cycles); err != nil {
				return nil, fmt.Errorf("kill-resume seed %d segment %d: %w",
					spec.Seed, out.Segments, err)
			}
		}

		if r.err == nil {
			// The segment ran to completion (a kill target can go unhit
			// when the program halts inside a translated fragment that
			// retired past it).
			out.VM = r.out.VM
			out.Mismatch = DiffState(v.CPU(), oracle)
			if out.Mismatch == "" && out.VM.TotalVInsts() != total {
				out.Mismatch = fmt.Sprintf("retired V-insts: got %d, want %d (oracle)",
					out.VM.TotalVInsts(), total)
			}
			break
		}

		var pe *vm.PreemptError
		if !errors.As(r.err, &pe) {
			return nil, fmt.Errorf("kill-resume seed %d, %s on %v: unexpected error: %w",
				spec.Seed, spec.Workload.Name, spec.Machine, r.err)
		}
		if pe.PC != v.CPU().PC {
			return nil, fmt.Errorf("kill-resume seed %d: preempt PC %#x != architected PC %#x",
				spec.Seed, pe.PC, v.CPU().PC)
		}
		out.Kills++

		// Checkpoint, and hold the encoding to its contract: encoding is
		// deterministic, and Encode(Decode(b)) == b. The next segment
		// restores from the *decoded* state so the full serialization
		// path is what actually carries execution forward.
		b1 := checkpoint.Encode(v.Checkpoint())
		if b2 := checkpoint.Encode(v.Checkpoint()); !bytes.Equal(b1, b2) {
			return nil, fmt.Errorf("kill-resume seed %d: checkpoint encoding not deterministic", spec.Seed)
		}
		dec, err := checkpoint.Decode(b1)
		if err != nil {
			return nil, fmt.Errorf("kill-resume seed %d: decoding own checkpoint: %w", spec.Seed, err)
		}
		if !bytes.Equal(checkpoint.Encode(dec), b1) {
			return nil, fmt.Errorf("kill-resume seed %d: Encode(Decode(b)) != b", spec.Seed)
		}
		out.CkptBytes = len(b1)
		st = dec

		// Fragments retire in bulk, so the segment may have run past
		// several targets at once; every target at or below the restored
		// retirement count is already behind us.
		for ti < len(targets) && targets[ti] <= v.Stats.TotalVInsts() {
			ti++
		}
	}

	if spec.Metrics != nil {
		out.VM.Publish(spec.Metrics)
	}
	return out, nil
}
