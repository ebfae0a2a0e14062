package workload

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/emu"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/vm"
)

func TestAllWorkloadsAssemble(t *testing.T) {
	for _, spec := range All(1) {
		if _, err := spec.Program(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 12 {
		t.Fatalf("got %d workloads, want 12 (SPEC CPU2000 INT)", len(names))
	}
	for _, want := range []string{"gzip", "gcc", "mcf", "perlbmk", "eon", "vortex"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("missing workload %s", want)
		}
	}
	if _, err := ByName("nonesuch", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestAllWorkloadsRunToCompletion(t *testing.T) {
	for _, spec := range All(1) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cpu := emu.New(mem.New())
			if err := cpu.LoadProgram(spec.MustProgram()); err != nil {
				t.Fatal(err)
			}
			if err := cpu.Run(100_000_000); err != nil {
				t.Fatalf("interpretation failed: %v", err)
			}
			if !cpu.Halted || cpu.ExitStatus != 0 {
				t.Fatalf("halted=%v status=%d", cpu.Halted, cpu.ExitStatus)
			}
			if cpu.InstCount < 50_000 {
				t.Errorf("only %d instructions executed; workload too small", cpu.InstCount)
			}
			if cpu.InstCount > 20_000_000 {
				t.Errorf("%d instructions at scale 1; workload too large for tests", cpu.InstCount)
			}
		})
	}
}

// TestWorkloadDBTEquivalence is the system-level keystone: every workload
// must produce identical architected state under the co-designed VM and
// under pure interpretation.
func TestWorkloadDBTEquivalence(t *testing.T) {
	for _, spec := range All(1) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			ref := emu.New(mem.New())
			if err := ref.LoadProgram(spec.MustProgram()); err != nil {
				t.Fatal(err)
			}
			if err := ref.Run(100_000_000); err != nil {
				t.Fatal(err)
			}

			cfg := vm.DefaultConfig()
			cfg.HotThreshold = 10
			v := vm.New(mem.New(), cfg)
			if err := v.LoadProgram(spec.MustProgram()); err != nil {
				t.Fatal(err)
			}
			if err := v.Run(200_000_000); err != nil {
				t.Fatalf("vm: %v", err)
			}
			for r := 0; r < alpha.NumRegs-1; r++ {
				if v.CPU().Reg[r] != ref.Reg[r] {
					t.Errorf("r%d = %#x, want %#x", r, v.CPU().Reg[r], ref.Reg[r])
				}
			}
			if v.Stats.Fragments == 0 {
				t.Error("no translation happened")
			}
			frac := float64(v.Stats.TransVInsts) / float64(v.Stats.TotalVInsts())
			if frac < 0.5 {
				t.Errorf("translated fraction %.2f too low", frac)
			}
		})
	}
}

func TestWorkloadPersonalities(t *testing.T) {
	// Workload character checks: the stand-ins must stress what their
	// SPEC counterparts stress in the paper.
	stats := map[string]*vm.Stats{}
	for _, spec := range All(1) {
		cfg := vm.DefaultConfig()
		cfg.HotThreshold = 10
		v := vm.New(mem.New(), cfg)
		if err := v.LoadProgram(spec.MustProgram()); err != nil {
			t.Fatal(err)
		}
		if err := v.Run(200_000_000); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		stats[spec.Name] = &v.Stats
	}
	indirectRate := func(name string) float64 {
		s := stats[name]
		return float64(s.RASHits+s.RASMisses+s.SWPredHits+s.SWPredMisses) /
			float64(s.TransVInsts)
	}
	// perlbmk and eon are the indirect-control-heavy stand-ins; gzip and
	// crafty are loop kernels with almost none.
	if indirectRate("perlbmk") < 4*indirectRate("gzip") {
		t.Errorf("perlbmk indirect rate %.4f should dwarf gzip's %.4f",
			indirectRate("perlbmk"), indirectRate("gzip"))
	}
	if indirectRate("eon") < 4*indirectRate("crafty") {
		t.Errorf("eon indirect rate %.4f should dwarf crafty's %.4f",
			indirectRate("eon"), indirectRate("crafty"))
	}
	// eon's returns should hit the dual RAS.
	if stats["eon"].RASHits == 0 {
		t.Error("eon never hit the dual-address RAS")
	}
}

func TestScaleGrowsWork(t *testing.T) {
	count := func(scale int) uint64 {
		spec, err := ByName("gzip", scale)
		if err != nil {
			t.Fatal(err)
		}
		cpu := emu.New(mem.New())
		if err := cpu.LoadProgram(spec.MustProgram()); err != nil {
			t.Fatal(err)
		}
		if err := cpu.Run(500_000_000); err != nil {
			t.Fatal(err)
		}
		return cpu.InstCount
	}
	c1, c3 := count(1), count(3)
	if c3 < c1*2 {
		t.Errorf("scale 3 (%d insts) should be at least twice scale 1 (%d)", c3, c1)
	}
}

// TestLoad loads gzip the three ways a command line can name a program
// and checks each yields the same image under the name given.
func TestLoad(t *testing.T) {
	spec, err := ByName("gzip", 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Program()
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := want.Save(&img); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src, bin := filepath.Join(dir, "gzip.s"), filepath.Join(dir, "gzip.img")
	if err := os.WriteFile(src, []byte(spec.Source), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bin, img.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, src, img, want string }{
		{"gzip", "", "", "gzip"},
		{"", src, "", src},
		{"", "", bin, bin},
	} {
		p, name, err := Load(c.name, c.src, c.img, 1)
		if err != nil {
			t.Fatalf("Load(%q, %q, %q): %v", c.name, c.src, c.img, err)
		}
		var got bytes.Buffer
		if err := p.Save(&got); err != nil {
			t.Fatal(err)
		}
		if name != c.want || !bytes.Equal(got.Bytes(), img.Bytes()) {
			t.Errorf("Load(%q, %q, %q) = image of %d bytes named %q; want gzip's %d bytes named %q",
				c.name, c.src, c.img, got.Len(), name, img.Len(), c.want)
		}
	}
	if _, _, err := Load("", "", "", 1); !errors.Is(err, ErrNoProgram) {
		t.Errorf("Load with nothing named: err = %v, want ErrNoProgram", err)
	}
	if _, _, err := Load("nosuch", "", "", 1); err == nil {
		t.Error("Load of an unknown workload succeeded")
	}

	var list bytes.Buffer
	List(&list)
	if n := strings.Count(list.String(), "\n"); n != len(Names()) {
		t.Errorf("List wrote %d lines, want one per workload (%d)", n, len(Names()))
	}
}
