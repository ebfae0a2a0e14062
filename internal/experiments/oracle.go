package experiments

import (
	"fmt"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/workload"
)

// RunOracle assembles w and runs it on the pure Alpha interpreter, the
// reference every differential check compares against. It returns the
// program too, so the run under test boots the same image. maxV bounds
// the run (0 = run to completion); exhausting it is an error, since
// only completed runs are compared.
func RunOracle(w *workload.Spec, maxV int64) (*alphaprog.Program, *emu.CPU, error) {
	prog, err := w.Program()
	if err != nil {
		return nil, nil, err
	}
	cpu := emu.New(mem.New())
	if err := cpu.LoadProgram(prog); err != nil {
		return nil, nil, err
	}
	if err := cpu.Run(maxV); err != nil {
		return nil, nil, err
	}
	return prog, cpu, nil
}

// DiffState compares a run's final architected state against the
// oracle's and returns the first divergence ("" when bit-identical):
// halt and exit status, PC, registers, console output, and all of
// memory.
func DiffState(got, want *emu.CPU) string {
	if got.Halted != want.Halted {
		return fmt.Sprintf("halted: got %v, want %v", got.Halted, want.Halted)
	}
	if got.ExitStatus != want.ExitStatus {
		return fmt.Sprintf("exit status: got %d, want %d", got.ExitStatus, want.ExitStatus)
	}
	if got.PC != want.PC {
		return fmt.Sprintf("PC: got %#x, want %#x", got.PC, want.PC)
	}
	for r := alpha.Reg(0); r < alpha.NumRegs; r++ {
		if got.Reg[r] != want.Reg[r] {
			return fmt.Sprintf("R%d: got %#x, want %#x", r, got.Reg[r], want.Reg[r])
		}
	}
	if got.ConsoleString() != want.ConsoleString() {
		return fmt.Sprintf("console: got %q, want %q", got.ConsoleString(), want.ConsoleString())
	}
	if ok, addr := mem.Equal(got.Mem, want.Mem); !ok {
		return fmt.Sprintf("memory differs at %#x", addr)
	}
	return ""
}
