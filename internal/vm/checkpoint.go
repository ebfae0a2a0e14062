package vm

import (
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/translate"
)

// This file connects the VM to the checkpoint package: Checkpoint
// captures the complete architected state (plus the flattened Stats, so
// accounting reconciles across kill/resume segments), and Restore
// applies a decoded state to a VM while discarding every piece of
// concealed state — translation cache, trace counters, RAS,
// accumulators — which is rebuilt by re-translation, exactly as the
// co-designed-VM contract requires (DESIGN.md §11).

// Checkpoint captures the VM's architected state. It is only precise at
// a V-instruction boundary — call it after Run returns (halt, trap, or
// *PreemptError), never concurrently with Run.
func (v *VM) Checkpoint() *checkpoint.State {
	lockFlag, lockAddr := v.cpu.LockState()
	counters := make(map[string]uint64, len(statFields))
	for _, f := range statFields {
		counters[f.key] = f.get(&v.Stats)
	}
	return &checkpoint.State{
		PC:         v.cpu.PC,
		Reg:        v.cpu.Reg,
		Halted:     v.cpu.Halted,
		ExitStatus: v.cpu.ExitStatus,
		InstCount:  v.cpu.InstCount,
		LockFlag:   lockFlag,
		LockAddr:   lockAddr,
		MemStrict:  v.mem.Strict,
		Console:    append([]byte(nil), v.cpu.Console...),
		Counters:   counters,
		Pages:      v.mem.Snapshot(),
	}
}

// Restore applies a checkpointed state to the VM. All concealed state
// is reset cold: the translation cache is emptied, trace counters and
// quarantine/failure records are cleared, the RAS and translated
// code's register file are zeroed, and any in-flight superblock
// recording is abandoned. Translated code is rebuilt on demand after
// resume; because translation is a pure function of V-ISA memory
// (which the checkpoint restores exactly), the rebuilt fragments
// compute the same results as the discarded ones. The VM's Stats are
// restored from the checkpoint's flattened counters, so cumulative
// accounting spans segments.
func (v *VM) Restore(st *checkpoint.State) {
	v.cpu.PC = st.PC
	v.cpu.Reg = st.Reg
	v.cpu.Halted = st.Halted
	v.cpu.ExitStatus = st.ExitStatus
	v.cpu.InstCount = st.InstCount
	v.cpu.SetLockState(st.LockFlag, st.LockAddr)
	v.cpu.Console = append([]byte(nil), st.Console...)
	v.mem.Strict = st.MemStrict
	v.mem.LoadSnapshot(st.Pages)

	for _, f := range statFields {
		f.set(&v.Stats, st.Counters[f.key]) // an absent key is a zero
	}

	// Concealed state: discard and rebuild.
	v.tc.Reset()
	v.counters = map[uint64]int{}
	v.failures = map[uint64]int{}
	v.quarantine = map[uint64]bool{}
	v.recording = false
	v.sb = translate.Superblock{}
	v.inTrace = nil
	v.ras = newDualRAS(v.cfg.RASSize)
	v.rf = [len(v.rf)]uint64{}
	v.inFallback = false
	v.wdRetired = v.Stats.TotalVInsts()
	v.wdWork = v.Stats.TransIInsts + v.Stats.InterpInsts

	v.cfg.Metrics.Event(metrics.Event{Kind: metrics.EventResume, Frag: -1, VStart: st.PC})
	v.cfg.Metrics.Counter("vm.preempt.resumes").Inc()
	v.cfg.Prof.Resume(v.Stats.TransIInsts, v.Stats.TransVInsts)
}
