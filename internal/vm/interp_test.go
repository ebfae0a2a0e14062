package vm

import (
	"fmt"
	"math"
	"testing"

	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/workload"
)

// interpOnlyConfig is Fig. 8's original machine: nothing is ever hot,
// and every interpreted instruction goes to the sink.
func interpOnlyConfig(sink trace.Sink) Config {
	cfg := DefaultConfig()
	cfg.HotThreshold = math.MaxInt32
	cfg.InterpSink = sink
	return cfg
}

// TestInterpretOnlyMatchesEmu runs the torture program and every kernel
// on the interpret-only VM with a sink and requires the final state to
// be bit-identical to a bare emu.CPU's, with one record per retired
// instruction.
func TestInterpretOnlyMatchesEmu(t *testing.T) {
	progs := map[string]*alphaprog.Program{"torture": alphaasm.MustAssemble(torture)}
	for _, name := range workload.Names() {
		spec, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = spec.MustProgram()
	}
	for name, prog := range progs {
		ref := emu.New(mem.New())
		if err := ref.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(0); err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}

		var sink trace.Counter
		v := New(mem.New(), interpOnlyConfig(&sink))
		if err := v.LoadProgram(prog); err != nil {
			t.Fatal(err)
		}
		if err := v.Run(0); err != nil {
			t.Fatalf("%s: vm run: %v", name, err)
		}
		got := v.CPU()
		switch {
		case got.PC != ref.PC, got.Reg != ref.Reg:
			t.Errorf("%s: PC/registers differ from emu", name)
		case got.Halted != ref.Halted || got.ExitStatus != ref.ExitStatus:
			t.Errorf("%s: halted/exit %v/%d, emu %v/%d", name, got.Halted, got.ExitStatus, ref.Halted, ref.ExitStatus)
		case got.ConsoleString() != ref.ConsoleString():
			t.Errorf("%s: console differs from emu", name)
		case got.InstCount != ref.InstCount || v.Stats.InterpInsts != ref.InstCount:
			t.Errorf("%s: %d instructions (%d interpreted), emu %d", name, got.InstCount, v.Stats.InterpInsts, ref.InstCount)
		case sink.Recs != ref.InstCount:
			t.Errorf("%s: sink saw %d records, want %d", name, sink.Recs, ref.InstCount)
		case v.Stats.TransIInsts != 0:
			t.Errorf("%s: %d translated instructions on the interpret-only path", name, v.Stats.TransIInsts)
		}
		if ok, at := mem.Equal(got.Mem, ref.Mem); !ok {
			t.Errorf("%s: memory differs from emu at %#x", name, at)
		}
	}
}

// TestInterpSinkAllocs checks that interpreting with a sink allocates a
// fixed number of times, whatever the number of instructions: building
// each instruction's record must not reach the heap.
func TestInterpSinkAllocs(t *testing.T) {
	allocs := func(iters int) float64 {
		prog := alphaasm.MustAssemble(fmt.Sprintf(`
	.data 0x20000
cell:
	.quad 0
	.text 0x10000
start:
	ldiq a0, cell
	ldiq t0, %d
loop:
	ldq    t1, 0(a0)
	addq   t1, t0, t1
	stq    t1, 0(a0)
	cmovne t1, t1, t2
	subq   t0, #1, t0
	bne    t0, loop
	call_pal halt
`, iters))
		return testing.AllocsPerRun(3, func() {
			var sink trace.Counter
			v := New(mem.New(), interpOnlyConfig(&sink))
			if err := v.LoadProgram(prog); err != nil {
				t.Fatal(err)
			}
			if err := v.Run(0); err != nil {
				t.Fatal(err)
			}
			if sink.Recs < uint64(6*iters) {
				t.Fatalf("sink saw %d records for %d iterations", sink.Recs, iters)
			}
		})
	}
	small, large := allocs(100), allocs(20000)
	if large > small {
		t.Errorf("interpret-only run allocates %v times at 100 iterations, %v at 20000", small, large)
	}
}
