package main

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/checkpoint"
	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/fragstore"
	"github.com/ildp/accdbt/internal/iverify"
	"github.com/ildp/accdbt/internal/mem"
	"github.com/ildp/accdbt/internal/semcheck"
	"github.com/ildp/accdbt/internal/tcache"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/uarch"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// replayGuests is how many of a workload's guests (the first in its
// set) the traced run replays layer by layer.
const replayGuests = 4

// replay runs, in a traced run only, the calls a workload makes inside
// one public function again one layer at a time, so each layer gets its
// own spans: harvested fragments through the translation pipeline,
// captured instruction streams through fresh timing models, the serve
// quantum as its phases, and (outside serve-http) a short served load.
func (r *run) replay(guests []*guest) error {
	if r.tr == nil {
		return nil
	}
	r.tr.setPhase("replay")
	set := guests[:min(replayGuests, len(guests))]
	for _, g := range set {
		if g.want == nil {
			cpu, err := runOracle(r.main, g.prog)
			if err != nil {
				return err
			}
			g.want = cpu
		}
	}
	r.replayFragments(set)
	r.replayUarch(set)
	r.replayQuanta(set)
	if r.opts.workload != "serve-http" {
		return r.serveProbe(set)
	}
	return nil
}

// replayFragments runs each guest in a VM with a fresh store, then
// rebuilds every installed fragment's source superblock from guest
// memory (semcheck.Reconstruct) and re-times the pipeline the VM ran on
// it: translate, iverify, semcheck, the store's content address, and a
// private clone installed into a fresh translation cache. The
// re-translation must equal the store's artifact for the fragment,
// which shows the replay re-timed the work the VM did. (Reconstruction
// normalises how the superblock ended, so its content address may
// differ from the recorded one; the translation may not.)
func (r *run) replayFragments(set []*guest) {
	l := r.main
	store := fragstore.New()
	cfg := storeConfig(store)
	tcfg := translate.Config{Form: cfg.Form, NumAcc: cfg.NumAcc, Chain: cfg.Chain, FuseMemOps: cfg.FuseMemOps}
	icfg := iverify.Config{Form: cfg.Form, NumAcc: cfg.NumAcc, Chain: cfg.Chain}
	var frags, proved, work int64
	for _, g := range set {
		l.nextTrace()
		r.attempt(1)
		v, err := runVM(l, g.prog, cfg)
		if err != nil {
			r.fail("replay %s: %v", g.kernel, err)
			continue
		}
		m := v.CPU().Mem
		read := func(addr uint64) (alpha.Word, error) {
			w, err := m.Read32(addr)
			return alpha.Word(w), err
		}
		fresh := tcache.New(cfg.Form)
		tc := v.TCache()
		for id := 0; id < tc.Len(); id++ {
			f := tc.Frag(int32(id))
			if f == nil {
				continue
			}
			if err := r.refragment(l, read, f, store.Get(f.StoreKey), fresh, tcfg, icfg, &proved, &work); err != nil {
				r.fail("replay %s fragment at %#x: %v", g.kernel, f.VStart, err)
			}
			frags++
		}
	}
	var b []byte
	for i := 0; i < 3; i++ {
		l.begin("fragstore.encode")
		b = store.Encode()
		l.end(float64(len(b)))
		l.begin("fragstore.decode")
		_, rep, err := fragstore.Decode(b, fragstore.LoadOptions{})
		l.end(float64(len(b)))
		if err != nil || rep.Dropped() != 0 {
			r.fail("replay store reload: %v %v", rep, err)
		}
	}
	m := r.res.Metrics
	m["translate.work_units"] = float64(work)
	m["semcheck.proved_frac"] = float64(proved) / float64(max(frags, 1))
	m["fragstore.bytes"] = float64(len(b))
	r.res.Detail["replay_fragments"] = float64(frags)
}

func (r *run) refragment(l *lane, read func(uint64) (alpha.Word, error), f *tcache.Fragment,
	stored *translate.Result, fresh *tcache.Cache, tcfg translate.Config, icfg iverify.Config, proved, work *int64) error {
	l.begin("semcheck.reconstruct")
	sb, err := semcheck.Reconstruct(read, semcheck.FromFragment(f))
	l.end(1)
	if err != nil {
		return err
	}
	l.begin("translate.translate")
	res, err := translate.Translate(sb, tcfg)
	l.end(1)
	if err != nil {
		return err
	}
	*work += res.Cost
	l.begin("iverify.verify")
	vrep := iverify.Verify(res, icfg)
	l.end(1)
	l.begin("semcheck.check")
	srep := semcheck.Check(sb, res)
	l.end(1)
	if srep.OK() {
		*proved++
	}
	l.begin("fragstore.keyof")
	key, _, err := fragstore.KeyOf(sb, fragstore.Config{Translate: tcfg})
	l.end(1)
	if err != nil {
		return err
	}
	l.begin("tcache.install")
	_, err = fresh.InstallShared(fragstore.CloneForInstall(res), key, false)
	l.end(1)
	switch {
	case err != nil:
		return err
	case !vrep.OK():
		return fmt.Errorf("re-translation fails verification: %v", vrep)
	case !reflect.DeepEqual(res, stored):
		return errors.New("re-translation differs from the store's artifact")
	}
	return nil
}

// timingModel is what the replay needs of uarch.OoO and uarch.ILDP.
type timingModel interface {
	Append(trace.Rec)
	Finish() uarch.Result
}

// replayUarch runs each guest (at most scale 2) on the original and the
// ILDP modified machines with the committed-instruction stream teed
// into a buffer, then replays the buffer into a fresh timing model of
// the same configuration; the replayed result must equal the live one.
func (r *run) replayUarch(set []*guest) {
	l := r.main
	for _, g := range set {
		spec, err := workload.ByNameSeeded(g.kernel, min(g.scale, 2), g.seed)
		if err != nil {
			r.fail("replay %s: %v", g.kernel, err)
			continue
		}
		for _, mi := range []int{0, 3} { // original, ildp_modified
			l.nextTrace()
			r.attempt(1)
			buf := &trace.Buffer{}
			rs := fig8Spec(mi, spec)
			rs.Tune = func(c *vm.Config) {
				if c.Sink != nil {
					c.Sink = trace.Multi{c.Sink, buf}
				}
				if c.InterpSink != nil {
					c.InterpSink = trace.Multi{c.InterpSink, buf}
				}
			}
			kind := modelKind(rs.Machine)
			l.begin("experiments.run." + kind)
			out, err := experiments.Run(rs)
			l.end(float64(len(buf.Recs)))
			if err != nil {
				r.fail("replay %s on %s: %v", g.kernel, fig8Machines[mi].series, err)
				continue
			}
			var model timingModel
			if kind == "ooo" {
				model = uarch.NewOoO(uarch.DefaultOoO())
			} else {
				model = uarch.NewILDP(uarch.DefaultILDP())
			}
			l.begin("uarch." + kind)
			for _, rec := range buf.Recs {
				model.Append(rec)
			}
			got := model.Finish()
			l.end(float64(len(buf.Recs)))
			if got != out.Timing {
				r.fail("replay %s on %s: replayed timing %+v differs from the live run's %+v",
					g.kernel, fig8Machines[mi].series, got, out.Timing)
			}
		}
	}
}

// replayQuanta runs each guest the way the serve scheduler does, one
// quantum at a time — New, Run until the quantum's V-instructions,
// Checkpoint, Encode, then Decode and New plus Restore for the next —
// with a span around each phase. The final state must equal the oracle.
func (r *run) replayQuanta(set []*guest) {
	l := r.main
	store := fragstore.New()
	var bytes, n float64
	for _, g := range set {
		l.nextTrace()
		r.attempt(1)
		if err := r.quanta(l, g, store, &bytes, &n); err != nil {
			r.fail("quantum replay %s: %v", g.kernel, err)
		}
	}
	r.res.Metrics["checkpoint.bytes"] = bytes / max(n, 1)
}

func (r *run) quanta(l *lane, g *guest, store *fragstore.Store, bytes, n *float64) error {
	var raw []byte
	for {
		var st *checkpoint.State
		if raw != nil {
			var err error
			l.begin("checkpoint.decode")
			st, err = checkpoint.Decode(raw)
			l.end(float64(len(raw)))
			if err != nil {
				return err
			}
		}
		cfg := storeConfig(store)
		cfg.SelfHeal = true
		var v *vm.VM
		var target uint64
		cfg.Stop = func() bool { return v.Stats.TotalVInsts() >= target }
		l.begin("vm.new")
		v = vm.New(mem.New(), cfg)
		l.end(1)
		if st == nil {
			if err := v.LoadProgram(g.prog); err != nil {
				return err
			}
		} else {
			l.begin("vm.restore")
			v.Restore(st)
			l.end(1)
		}
		target = v.Stats.TotalVInsts() + serveQuantum
		work := v.Stats.TransIInsts + v.Stats.InterpInsts
		l.begin("vm.run")
		err := v.Run(0)
		l.end(float64(v.Stats.TransIInsts + v.Stats.InterpInsts - work))
		l.begin("vm.checkpoint")
		ck := v.Checkpoint()
		l.end(1)
		l.begin("checkpoint.encode")
		raw = checkpoint.Encode(ck)
		l.end(float64(len(raw)))
		*bytes += float64(len(raw))
		*n++
		switch {
		case err == nil:
			return sameCheckpoint(g.want, ck)
		case !errors.Is(err, vm.ErrPreempted):
			return err
		}
	}
}

// serveProbe serves each replayed guest twice through a fresh in-process
// server under the serve-http load shape, so every workload reports the
// serve and http layers on its own guests.
func (r *run) serveProbe(set []*guest) error {
	if err := withImages(set); err != nil {
		return err
	}
	g, err := startRig()
	if err != nil {
		return err
	}
	defer g.close()
	dv := newDriver(r, g, set)
	lanes := make([]*lane, serveConns)
	for i := range lanes {
		lanes[i] = r.tr.lane(fmt.Sprintf("probe-client-%d", i))
	}
	t0 := time.Now()
	dv.drive(lanes, 2*len(set), time.Time{})
	wall := time.Since(t0)
	busy := g.quantumMS()
	r.verifySessions(r.main, g, dv.finished())
	r.serveLayer(g, dv, wall, busy)
	return nil
}
