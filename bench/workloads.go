package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"time"

	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// vmWarm is the `ildpvm -cachefile` warm start: the twelve kernels at
// scale 8, one guest at a time, each in a fresh VM attached to a
// fragment store that set-up filled and round-tripped through
// Encode and Decode. Every superblock hits the store, so the loop is
// translated execution and cache dispatch.
func vmWarm(r *run) error {
	var guests []*guest
	var store *fragstore.Store
	err := r.setup(3, func(l *lane) error {
		gs, err := makeGuests(l, []uint64{r.opts.seed}, 8)
		if err == nil {
			err = r.oracles(l, gs)
		}
		if err != nil {
			return err
		}
		fill := fragstore.New()
		for _, g := range gs {
			l.nextTrace()
			if _, err := runVM(l, g.prog, storeConfig(fill)); err != nil {
				return fmt.Errorf("filling the store with %s: %w", g.kernel, err)
			}
		}
		l.begin("fragstore.encode")
		b := fill.Encode()
		l.end(float64(len(b)))
		l.begin("fragstore.decode")
		st, rep, err := fragstore.Decode(b, fragstore.LoadOptions{})
		l.end(float64(len(b)))
		if err != nil {
			return err
		}
		if rep.Dropped() != 0 {
			return fmt.Errorf("store reload: %v", rep)
		}
		guests, store = gs, st
		return nil
	})
	if err != nil {
		return err
	}
	var base *counts
	r.measure(func(l *lane, d time.Duration) (s sample) {
		passes(&s, d, func() {
			var c counts
			for _, i := range r.rng.Perm(len(guests)) {
				g := guests[i]
				l.nextTrace()
				r.cal.tick()
				t := time.Now()
				v, err := runVM(l, g.prog, storeConfig(store))
				s.add(time.Since(t), float64(v.Stats.TotalVInsts()), r.cal.scale())
				r.attempt(1)
				l.begin("bench.check")
				switch {
				case err != nil:
					r.fail("%s: %v", g.kernel, err)
				case v.Stats.StoreMisses != 0 || v.Stats.TranslateCost != 0:
					r.fail("%s: warm start translated (%d store misses)", g.kernel, v.Stats.StoreMisses)
				default:
					if err := sameCPU(g.want, v.CPU()); err != nil {
						r.fail("%s: %v", g.kernel, err)
					}
				}
				l.end(0)
				c.addVM(&v.Stats)
			}
			r.samePass(&base, c)
		})
		return s
	})
	r.publishCounts(base)
	return r.replay(guests)
}

func storeConfig(st *fragstore.Store) vm.Config {
	cfg := vm.DefaultConfig()
	cfg.Store = st
	return cfg
}

// oracleDiff is the differential check behind CI, chaos and fuzzing:
// the twelve kernels times eight data seeds at scale 1. Each check runs
// the interpreter to completion, then a cold VM with a fresh store and
// Verify and SemCheck on, and compares the two final states bit for
// bit.
func oracleDiff(r *run) error {
	var guests []*guest
	err := r.setup(5, func(l *lane) (err error) {
		guests, err = makeGuests(l, seedRange(r.opts.seed, 8), 1)
		return err
	})
	if err != nil {
		return err
	}
	var base *counts
	r.measure(func(l *lane, d time.Duration) (s sample) {
		passes(&s, d, func() {
			var c counts
			for _, i := range r.rng.Perm(len(guests)) {
				g := guests[i]
				l.nextTrace()
				r.cal.tick()
				t := time.Now()
				n := r.diffCheck(l, g, &c)
				s.add(time.Since(t), float64(n), r.cal.scale())
			}
			r.samePass(&base, c)
		})
		return s
	})
	r.publishCounts(base)
	if base != nil {
		r.res.Metrics["emu.vinsts"] = float64(base.VInsts)
	}
	return r.replay(guests)
}

// diffCheck runs one differential check and returns the guest's
// V-instruction count.
func (r *run) diffCheck(l *lane, g *guest, c *counts) uint64 {
	r.attempt(1)
	l.begin("bench.check")
	defer l.end(0)
	want, err := runOracle(l, g.prog)
	if err != nil {
		r.fail("%s seed %d: %v", g.kernel, g.seed, err)
		return 0
	}
	cfg := storeConfig(fragstore.New())
	cfg.Verify, cfg.SemCheck = true, true
	v, err := runVM(l, g.prog, cfg)
	c.addVM(&v.Stats)
	if err == nil {
		err = sameCPU(want, v.CPU())
	}
	if err != nil {
		r.fail("%s seed %d: %v", g.kernel, g.seed, err)
	}
	return want.InstCount
}

// fig8Machines are Fig. 8's four machines with the run specs the
// experiment uses (scale 2, threshold 50, 8 PEs, software prediction
// plus the dual-address RAS).
var fig8Machines = []struct {
	series string
	spec   experiments.RunSpec
}{
	{"original", experiments.RunSpec{Machine: experiments.Original}},
	{"straightened", experiments.RunSpec{Machine: experiments.Straightened, Chain: translate.SWPredRAS}},
	{"ildp_basic", experiments.RunSpec{Machine: experiments.ILDPBasic, Chain: translate.SWPredRAS, PEs: 8}},
	{"ildp_modified", experiments.RunSpec{Machine: experiments.ILDPModified, Chain: translate.SWPredRAS, PEs: 8}},
}

// fig8Spec returns the timed run spec of machine i on w.
func fig8Spec(i int, w *workload.Spec) experiments.RunSpec {
	spec := fig8Machines[i].spec
	spec.Workload, spec.Timing, spec.HotThreshold = w, true, vm.DefaultHotThreshold
	return spec
}

// modelKind names the timing model a machine runs on.
func modelKind(m experiments.Machine) string {
	if m == experiments.Original || m == experiments.Straightened {
		return "ooo"
	}
	return "ildp"
}

// simFig8 is the paper reproduction: Fig. 8's 48 timed simulations (four
// machines times twelve kernels at scale 2) through experiments.Run, one
// after another, in whole passes. Seed 0 is the committed report's data
// set, and every IPC must equal its fig8 record; at every seed each run
// must retire exactly the interpreter oracle's instruction count.
func simFig8(r *run) error {
	var guests []*guest
	err := r.setup(3, func(l *lane) (err error) {
		guests, err = makeGuests(l, []uint64{r.opts.seed}, 2)
		if err == nil {
			err = r.oracles(l, guests)
		}
		return err
	})
	if err != nil {
		return err
	}
	var base *counts
	var baseIPC map[string]float64
	r.measure(func(l *lane, d time.Duration) (s sample) {
		passes(&s, d, func() {
			var c counts
			ipc := map[string]float64{}
			for _, i := range r.rng.Perm(len(guests)) {
				g := guests[i]
				for mi, m := range fig8Machines {
					spec := fig8Spec(mi, g.spec)
					l.nextTrace()
					r.cal.tick()
					t := time.Now()
					l.begin("experiments.run." + modelKind(spec.Machine))
					out, err := experiments.Run(spec)
					recs := 0.0
					if err == nil {
						recs = float64(out.Timing.Insts)
					}
					l.end(recs)
					s.add(time.Since(t), recs, r.cal.scale())
					r.attempt(1)
					if err != nil {
						r.fail("%s on %s: %v", g.kernel, m.series, err)
						continue
					}
					if got := out.VM.TotalVInsts(); got != g.want.InstCount {
						r.fail("%s on %s retired %d V-insts, oracle %d", g.kernel, m.series, got, g.want.InstCount)
					}
					c.addVM(&out.VM)
					c.SimRecords += out.Timing.Insts
					ipc[m.series+"/"+g.kernel] = out.Timing.IPC()
					if m.series == "ildp_modified" {
						ipc["native_iisa/"+g.kernel] = out.Timing.NativeIPC()
					}
				}
			}
			r.samePass(&base, c)
			if baseIPC == nil {
				baseIPC = ipc
				if r.opts.seed == 0 {
					r.checkFig8Report(ipc)
				}
			} else if !maps.Equal(ipc, baseIPC) {
				r.fail("determinism: IPCs differ from the first pass's")
			}
		})
		return s
	})
	r.publishCounts(base)
	return r.replay(guests)
}

// checkFig8Report compares one pass's IPCs with the committed report's
// fig8 records; every record is one attempted comparison.
func (r *run) checkFig8Report(ipc map[string]float64) {
	raw, err := os.ReadFile(fig8Report)
	if err != nil {
		r.attempt(1)
		r.fail("fig8 reference: %v", err)
		return
	}
	var rep struct {
		Records []struct {
			Exp, Series, Bench string
			Value              float64
		}
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		r.attempt(1)
		r.fail("fig8 reference: %v", err)
		return
	}
	n := 0
	for _, rec := range rep.Records {
		if rec.Exp != "fig8" {
			continue
		}
		n++
		r.attempt(1)
		key := rec.Series + "/" + rec.Bench
		if got, ok := ipc[key]; !ok || got != rec.Value {
			r.fail("fig8 %s: IPC %v, report %v", key, got, rec.Value)
		}
	}
	if n != len(ipc) {
		r.fail("fig8 reference has %d records, the pass produced %d", n, len(ipc))
	}
	r.res.Detail["fig8_records_checked"] = float64(n)
}
