package experiments

import (
	"math"
	"testing"

	"github.com/ildp/accdbt/internal/prof"
	"github.com/ildp/accdbt/internal/trace"
	"github.com/ildp/accdbt/internal/translate"
	"github.com/ildp/accdbt/internal/uarch"
	"github.com/ildp/accdbt/internal/vm"
	"github.com/ildp/accdbt/internal/workload"
)

// traceDigest is the FNV-1a-style hash computed by TestTraceDigest.
// Any change to a field of any record the VM emits, or to any number
// the timing models derive from them, changes it.
const traceDigest = 0x8172d6be673bd4e0

// digestSink hashes every field of every record it is fed, in order.
type digestSink struct {
	h    uint64
	recs uint64
}

func (d *digestSink) mix(v uint64) { d.h = (d.h ^ v) * 1099511628211 }

func (d *digestSink) flag(b bool) {
	if b {
		d.mix(1)
	} else {
		d.mix(0)
	}
}

// Append implements trace.Sink.
func (d *digestSink) Append(r trace.Rec) {
	d.recs++
	d.mix(r.PC)
	d.mix(uint64(r.Size))
	d.mix(uint64(r.Class))
	d.mix(uint64(r.SrcReg[0]))
	d.mix(uint64(r.SrcReg[1]))
	d.mix(uint64(r.DstReg))
	d.mix(uint64(r.SrcAcc))
	d.mix(uint64(r.DstAcc))
	d.flag(r.DstOperational)
	d.mix(r.MemAddr)
	d.mix(uint64(r.MemWidth))
	d.flag(r.Taken)
	d.mix(r.Target)
	d.flag(r.Indirect)
	d.flag(r.PredHit)
	d.mix(uint64(r.VCredit))
}

func (d *digestSink) result(r uarch.Result, peDist []float64) {
	for _, v := range []uint64{
		uint64(r.Cycles), r.Insts, r.VInsts,
		r.CondMispredicts, r.TargetMispredicts, r.Misfetches, r.Branches,
		r.ICacheMisses, r.DCacheMisses, r.L2Misses,
		uint64(r.ICacheStall), uint64(r.DCacheStall), uint64(r.RedirectLoss),
		r.Episodes,
	} {
		d.mix(v)
	}
	for _, f := range peDist {
		d.mix(math.Float64bits(f))
	}
}

// TestTraceDigest pins the committed-instruction trace and the timing
// models: it hashes every field of every record of Fig. 8's runs (the
// twelve kernels on the four machines at scale 1, threshold 50, with
// Fig. 8's specs) and every field of each run's timing Result. The
// gzip ILDP-modified run also carries a profiler, so the profiled
// retire path is covered, and its retire count and cycle total are
// hashed too. Every record is also checked against the record
// contract, trace.Rec.Validate.
func TestTraceDigest(t *testing.T) {
	d := &digestSink{h: 14695981039346656037}
	var checkers []*trace.Checker
	check := func(s trace.Sink) trace.Sink {
		c := &trace.Checker{Next: s}
		checkers = append(checkers, c)
		return c
	}
	tap := func(cfg *vm.Config) {
		if cfg.Sink != nil {
			cfg.Sink = check(trace.Multi{d, cfg.Sink})
		}
		if cfg.InterpSink != nil {
			cfg.InterpSink = check(trace.Multi{d, cfg.InterpSink})
		}
	}
	for _, name := range workload.Names() {
		w, err := workload.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Machine{Original, Straightened, ILDPBasic, ILDPModified} {
			spec := RunSpec{Workload: w, Machine: m, Timing: true, HotThreshold: 50, Tune: tap}
			if m != Original {
				spec.Chain, spec.PEs = translate.SWPredRAS, 8
			}
			if name == "gzip" && m == ILDPModified {
				spec.Prof = prof.New(prof.Config{})
			}
			out, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			d.result(out.Timing, out.PEDist)
			if p := spec.Prof; p != nil {
				d.mix(p.Retires())
				d.mix(uint64(p.Profile().TotalCycles))
			}
		}
	}
	for _, c := range checkers {
		if c.Err != nil {
			t.Errorf("the VM broke the record contract: %v", c.Err)
		}
	}
	if d.h != traceDigest {
		t.Fatalf("trace digest over %d records = %#x, want %#x", d.recs, d.h, uint64(traceDigest))
	}
}
