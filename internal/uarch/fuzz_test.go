package uarch

import (
	"reflect"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/cachesim"
	"github.com/ildp/accdbt/internal/trace"
)

// fuzzInput turns fuzzer bytes into a machine configuration drawn from
// Table 1's ranges and a record stream that passes trace.Rec.Validate.
// The first 8 bytes pick the configuration; every 8 after them make a
// record, up to 1024 records. The stream moves through at most 64
// fetch lines and 4096 data words, so branches and stores repeat.
func fuzzInput(data []byte) (Config, []trace.Rec) {
	var c [8]byte
	copy(c[:], data)
	cfg := Config{
		Width:       1 + int(c[0]%8),
		ROB:         8 + int(c[1])%249,
		RedirectLat: 1 + int64(c[2]%5),
		MulLat:      1 + int64(c[2]/5%10),
		FUs:         1 + int(c[3]%8),
		PEs:         []int{4, 6, 8}[c[4]%3],
		CommLat:     []int64{0, 2}[c[4]/3%2],
		FIFODepth:   1 + int(c[5]%32),
		UseHWRAS:    c[6]&1 != 0,
		// The dual-address RAS trace flag overrides the hardware RAS.
		DualRASTrace: c[6]&2 != 0,
		CacheOpts:    cachesim.Options{DSizeBytes: 32 << 10, DWays: 4, Replicas: 1},
	}
	if c[6]&4 != 0 {
		cfg.CacheOpts.DSizeBytes, cfg.CacheOpts.DWays = 8<<10, 2
	}
	if c[6]&8 != 0 {
		cfg.CacheOpts.Replicas = cfg.PEs
	}
	if len(data) < 8 {
		return cfg, nil
	}
	reg := func(b byte) uint8 {
		if b >= 2*trace.NumRegs {
			return trace.NoReg
		}
		return b % trace.NumRegs
	}
	acc := func(b byte) uint8 {
		if b%2 == 0 {
			return trace.NoAcc
		}
		return b / 2 % trace.NumAccs
	}
	var recs []trace.Rec
	for b := data[8:]; len(b) >= 8 && len(recs) < 1024; b = b[8:] {
		r := trace.Rec{
			PC:             0x10000 + uint64(b[0]&0x3f)*fetchLineBytes + uint64(b[1]&0x1f)*4,
			Size:           []uint8{2, 4, 8}[b[2]%3],
			Class:          trace.Class(b[2] / 3 % 10),
			SrcReg:         [2]uint8{reg(b[3]), reg(b[4])},
			DstReg:         reg(b[5]),
			SrcAcc:         acc(b[6]),
			DstAcc:         acc(b[6] >> 4),
			DstOperational: b[7]&1 != 0,
			VCredit:        b[7] >> 1 & 3,
		}
		switch {
		case r.Class == trace.ClassLoad || r.Class == trace.ClassStore:
			r.MemAddr = 0x400000 + uint64(b[0])<<4 | uint64(b[1])&0xf<<3
			r.MemWidth = 8
		case r.IsBranch():
			r.Taken = b[7]&8 != 0
			r.Indirect = b[7]&16 != 0
			r.PredHit = b[7]&32 != 0
			if r.Taken && b[7]&64 == 0 {
				r.Target = 0x10000 + uint64(b[1])*16
			}
			// A taken branch with a zero target is a mode switch.
		}
		recs = append(recs, r)
	}
	return cfg, recs
}

// fuzzModel is what the fuzz target needs of both models.
type fuzzModel interface {
	trace.Sink
	Stages() (trace.Stage, trace.BatchSink)
	Finish() Result
}

// fuzzResult is a finished model's result, with the ILDP model's PE
// distribution.
type fuzzResult struct {
	Result
	peDist []float64
}

func finish(m fuzzModel) fuzzResult {
	r := fuzzResult{Result: m.Finish()}
	if im, ok := m.(*ILDP); ok {
		r.peDist = im.PEDistribution()
	}
	return r
}

// fuzzBatch is the batch size the pipe schedules use: small, so that
// short streams still span several batches.
const fuzzBatch = 7

// The schedules of the fetch stage a model must not tell apart.
var fuzzSchedules = []struct {
	name string
	run  func(m fuzzModel, recs []trace.Rec)
}{
	{"Append", func(m fuzzModel, recs []trace.Rec) { feed(m, recs) }},
	// The pipe's producer: it runs the stage over every queued batch
	// before the core sees any of them.
	{"producer", func(m fuzzModel, recs []trace.Rec) {
		stage, core := m.Stages()
		recs = append([]trace.Rec(nil), recs...)
		for i := 0; i < len(recs); i += fuzzBatch {
			stage.StageBatch(recs[i:min(i+fuzzBatch, len(recs))])
		}
		for i := 0; i < len(recs); i += fuzzBatch {
			core.AppendBatch(recs[i:min(i+fuzzBatch, len(recs))])
		}
	}},
	// The pipe's consumer: the producer has staged a prefix of each
	// batch, and the consumer stages the rest just before it feeds the
	// batch to the core.
	{"consumer", func(m fuzzModel, recs []trace.Rec) {
		stage, core := m.Stages()
		recs = append([]trace.Rec(nil), recs...)
		for i, k := 0, 0; i < len(recs); i, k = i+fuzzBatch, k+1 {
			b := recs[i:min(i+fuzzBatch, len(recs))]
			part := k % (len(b) + 1)
			stage.StageBatch(b[:part])
			stage.StageBatch(b[part:])
			core.AppendBatch(b)
		}
	}},
}

// runBounded runs one schedule on a fresh model and returns its result,
// failing t if the model does not finish within the bound.
func runBounded(t *testing.T, name string, mk func() fuzzModel, run func(fuzzModel, []trace.Rec), recs []trace.Rec) fuzzResult {
	t.Helper()
	done := make(chan fuzzResult, 1)
	go func() {
		m := mk()
		run(m, recs)
		done <- finish(m)
	}()
	select {
	case r := <-done:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: %d records did not finish within 10s", name, len(recs))
		return fuzzResult{}
	}
}

// FuzzTimingModel runs a stream of valid records through both timing
// models on a configuration from Table 1's ranges. Each model must
// finish, retire every record, keep Cycles x Width >= Insts, give the
// same result on a re-run, and give that result under every schedule
// of its fetch stage. Cycles are not checked against latencies: the
// greedy models have real timing anomalies (EXPERIMENTS.md, known
// deviation 3).
func FuzzTimingModel(f *testing.F) {
	f.Add([]byte{3, 120, 12, 3, 2, 15, 2, 0})
	seed := []byte{3, 120, 12, 3, 5, 15, 9, 0}
	for _, r := range mixedStream(64) {
		seed = append(seed, byte(r.PC>>2), byte(r.PC>>4), byte(r.Class)*3, r.SrcReg[0], r.SrcReg[1], r.DstReg,
			r.SrcAcc&7<<1|1|r.DstAcc&7<<5, byte(r.MemAddr>>3)|8)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, recs := fuzzInput(data)
		for i := range recs {
			if err := recs[i].Validate(); err != nil {
				t.Fatalf("record %d breaks the contract: %v", i, err)
			}
		}
		for _, model := range []struct {
			name string
			mk   func() fuzzModel
		}{
			{"OoO", func() fuzzModel { return NewOoO(cfg) }},
			{"ILDP", func() fuzzModel { return NewILDP(cfg) }},
		} {
			want := runBounded(t, model.name, model.mk, fuzzSchedules[0].run, recs)
			if want.Insts != uint64(len(recs)) {
				t.Fatalf("%s: retired %d of %d records", model.name, want.Insts, len(recs))
			}
			if want.Cycles*int64(cfg.withDefaults().Width) < int64(want.Insts) {
				t.Fatalf("%s: %d records in %d cycles at width %d", model.name, want.Insts, want.Cycles, cfg.Width)
			}
			for _, s := range fuzzSchedules {
				got := runBounded(t, model.name+" "+s.name, model.mk, s.run, recs)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s: result %+v, Append gave %+v", model.name, s.name, got, want)
				}
			}
		}
	})
}
