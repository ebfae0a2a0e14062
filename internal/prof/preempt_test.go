package prof

import "testing"

// TestPreemptFrame drives the preempt pseudo-frame through its full
// life cycle: a preemption mid-fragment closes the active frame and
// opens the preempt frame; Resume closes it; cycles retired while
// preempted are attributed to it; and conservation holds across the
// whole timeline.
func TestPreemptFrame(t *testing.T) {
	p := New(Config{})
	p.FragEnter(0, 0x2000, FragInfo{Insts: 4}, 0, 0)
	p.Retire(0, 4, 1)
	p.Preempt(4, 3)
	// Cycles between preemption and resume (e.g. the checkpoint walk in
	// a timed harness) charge to the preempt frame, not a fragment.
	p.Retire(0, 8, 0xFF)
	p.Resume(4, 3)
	p.FragEnter(1, 0x3000, FragInfo{Insts: 4}, 4, 3)
	p.Retire(0, 12, 1)
	p.FragExit(ExitVM, 8, 6)
	p.Finish()

	pr := p.Profile()
	if pr.PreemptEntries != 1 {
		t.Errorf("PreemptEntries = %d, want 1", pr.PreemptEntries)
	}
	if pr.PreemptCycles == 0 {
		t.Error("no cycles attributed to the preempt frame")
	}
	if err := pr.CheckConservation(p.Clock() + 1); err != nil {
		t.Fatalf("conservation with preempt frame: %v", err)
	}
}

// TestFinishClosesDanglingPreemptFrame covers the
// checkpoint-and-discard path: a profiler finished while the preempt
// frame is still open (no Resume) must close it as a preemption, not a
// trap, and stay conservation-clean.
func TestFinishClosesDanglingPreemptFrame(t *testing.T) {
	p := New(Config{})
	p.FragEnter(0, 0x2000, FragInfo{Insts: 4}, 0, 0)
	p.Retire(0, 4, 1)
	p.Preempt(4, 3)
	p.Retire(0, 6, 0xFF)
	p.Finish()

	pr := p.Profile()
	if pr.PreemptEntries != 1 {
		t.Errorf("PreemptEntries = %d, want 1", pr.PreemptEntries)
	}
	if err := pr.CheckConservation(p.Clock() + 1); err != nil {
		t.Fatalf("conservation with dangling preempt frame: %v", err)
	}
	// Resume on a profiler with no open preempt frame is a no-op.
	p2 := New(Config{})
	p2.Resume(0, 0)
	p2.Finish()
}
