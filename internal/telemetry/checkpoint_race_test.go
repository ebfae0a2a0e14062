package telemetry

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// TestCheckpointConcurrentProbe exercises the exact interleaving the
// serve scheduler hits on every quantum: scrapers keep the Config.Poll
// probe armed (calling State from other goroutines, which flips the
// want flag at arbitrary points) while the owner goroutine preempts the
// VM, publishes a boundary snapshot, parks the session, checkpoints,
// round-trips the encoding, and restores into a fresh VM for the next
// quantum. Run under -race this proves vm.Checkpoint never overlaps a
// probe execution — the probe only ever runs on the VM goroutine, and
// the parked fast path keeps scrapers off the descheduled VM. The run
// must also finish bit-identical to an uninterrupted interpreter.
func TestCheckpointConcurrentProbe(t *testing.T) {
	spec, err := workload.ByName("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	pl := New(Options{})
	defer pl.Close()
	sess := pl.Register(SessionConfig{Name: "ckpt-race", Workload: "gzip", Registry: reg})

	// The scraper: hammer State with a tiny wait so the want flag arms
	// and times out continuously, racing every phase transition below.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sess.State(time.Millisecond)
		}
	}()

	const quantum = 10_000
	var st *checkpoint.State
	for seg := 0; ; seg++ {
		if seg > 500 {
			t.Fatal("run never completed; preemption wedged")
		}
		cfg := vm.DefaultConfig()
		cfg.Metrics = reg
		cfg.Poll = sess.Poll
		var vv *vm.VM
		var target uint64
		cfg.Stop = func() bool { return vv.Stats.TotalVInsts() >= target }
		vv = vm.New(mem.New(), cfg)
		if st == nil {
			if err := vv.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
		} else {
			vv.Restore(st)
		}
		target = vv.Stats.TotalVInsts() + quantum

		sess.Attach(ProbeVM(vv, nil))
		runErr := vv.Run(0)

		// Deschedule: capture the boundary state and park, then
		// checkpoint — all while the scraper keeps arming the probe.
		sess.Park()
		ck := vv.Checkpoint()
		dec, derr := checkpoint.Decode(checkpoint.Encode(ck))
		if derr != nil {
			t.Fatalf("segment %d: checkpoint round-trip: %v", seg, derr)
		}
		st = dec

		if runErr == nil {
			break
		}
		if !errors.Is(runErr, vm.ErrPreempted) {
			t.Fatalf("segment %d: %v", seg, runErr)
		}
	}
	close(stop)
	wg.Wait()
	sess.Finish()

	// The chopped-up run must match the uninterrupted interpreter.
	oracle := emu.New(mem.New())
	if err := oracle.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if !st.Halted || st.ExitStatus != oracle.ExitStatus || st.PC != oracle.PC {
		t.Fatalf("final state halted/exit/pc = %v/%d/%#x, want %v/%d/%#x",
			st.Halted, st.ExitStatus, st.PC, oracle.Halted, oracle.ExitStatus, oracle.PC)
	}
	if string(st.Console) != oracle.ConsoleString() {
		t.Fatalf("console %q, want %q", st.Console, oracle.ConsoleString())
	}
	m := mem.New()
	m.LoadSnapshot(st.Pages)
	if ok, addr := mem.Equal(m, oracle.Mem); !ok {
		t.Fatalf("memory differs at %#x", addr)
	}
}
