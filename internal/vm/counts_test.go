package vm_test

import (
	"errors"
	"testing"

	"github.com/ildp/accdbt/internal/faultinject"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/telemetry"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// conserved reports whether s's per-class counts add up to its
// translated I-instructions. Every executed I-instruction has exactly
// one class, so the two agree whenever every visit's counts have been
// folded into Stats.
func conserved(s *vm.Stats) (sum uint64, ok bool) {
	for _, n := range s.ClassCounts {
		sum += n
	}
	return sum, sum == s.TransIInsts
}

// TestVisitCountsConserved checks that the class counts a visit leaves
// in its fragment reach Stats: after Run returns, Σ ClassCounts equals
// TransIInsts for every kernel under the default configuration, a cache
// small enough that Install flushes, fault injection with self-healing
// (which invalidates fragments), and a budget preemption resumed
// through Checkpoint and Restore into a fresh VM. A telemetry probe run
// from Poll, inside Run, must see the same balance.
func TestVisitCountsConserved(t *testing.T) {
	cases := []struct {
		name string
		tune func(*vm.Config)
		// resume runs the kernel in two segments, restoring the first
		// segment's checkpoint into a fresh VM.
		resume bool
	}{
		{name: "default", tune: func(*vm.Config) {}},
		{name: "flushing", tune: func(c *vm.Config) { c.TCacheBytes = 256 }},
		{name: "self-heal", tune: func(c *vm.Config) {
			c.Verify, c.Paranoid, c.SelfHeal = true, true, true
			c.Faults = &faultinject.Config{Seed: 7, EntryRate: 16}
		}},
		{name: "resume", tune: func(*vm.Config) {}, resume: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var iinsts, probes uint64
			var flushes, invalidates, resumed int
			for _, name := range workload.Names() {
				spec, err := workload.ByName(name, 1)
				if err != nil {
					t.Fatal(err)
				}
				prog := spec.MustProgram()
				newVM := func() *vm.VM {
					cfg := vm.DefaultConfig()
					cfg.HotThreshold = 10
					tc.tune(&cfg)
					var v *vm.VM
					var probe func() telemetry.Live
					polls := 0
					cfg.Poll = func() {
						if polls++; polls%97 != 0 {
							return
						}
						live := probe()
						if sum, ok := conserved(&live.Stats); !ok {
							t.Fatalf("%s: mid-run snapshot: Σ ClassCounts = %d, TransIInsts = %d",
								name, sum, live.Stats.TransIInsts)
						}
						probes++
					}
					v = vm.New(mem.New(), cfg)
					probe = telemetry.ProbeVM(v, nil)
					return v
				}
				v := newVM()
				if err := v.LoadProgram(prog); err != nil {
					t.Fatal(err)
				}
				budget := int64(0)
				if tc.resume {
					budget = 20_011
				}
				err = v.Run(budget)
				if tc.resume && errors.Is(err, vm.ErrBudget) {
					resumed++
					if sum, ok := conserved(&v.Stats); !ok {
						t.Fatalf("%s: at the preemption: Σ ClassCounts = %d, TransIInsts = %d",
							name, sum, v.Stats.TransIInsts)
					}
					st := v.Checkpoint()
					v = newVM()
					v.Restore(st)
					err = v.Run(0)
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if sum, ok := conserved(&v.Stats); !ok {
					t.Errorf("%s: Σ ClassCounts = %d, TransIInsts = %d", name, sum, v.Stats.TransIInsts)
				}
				iinsts += v.Stats.TransIInsts
				flushes += v.TCache().Flushes
				invalidates += v.TCache().Invalidates
			}
			switch {
			case iinsts == 0:
				t.Error("no kernel executed translated code")
			case probes == 0:
				t.Error("no telemetry snapshot was taken mid-run")
			case tc.name == "flushing" && flushes == 0:
				t.Error("no kernel flushed its translation cache")
			case tc.name == "self-heal" && invalidates == 0:
				t.Error("no kernel invalidated a fragment")
			case tc.resume && resumed == 0:
				t.Error("no kernel was preempted and resumed")
			}
		})
	}
}
