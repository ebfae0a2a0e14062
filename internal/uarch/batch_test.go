package uarch

import (
	"reflect"
	"testing"

	"github.com/ildp/accdbt/internal/trace"
)

// mixedStream returns n records of every class, with accumulator
// strands, memory traffic, taken branches and mode-switch boundaries.
func mixedStream(n int) []trace.Rec {
	recs := make([]trace.Rec, 0, n)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		r := accRec(0x1000+uint64(i%512)*4, uint8(x%5), uint8(x>>8%4), uint8(x>>16%32), uint8(x>>24%32), x>>32%2 == 0)
		if x>>40%3 == 0 {
			r.SrcAcc = trace.NoAcc
		}
		switch x >> 48 % 8 {
		case 0:
			r.Class, r.MemAddr, r.MemWidth = trace.ClassLoad, 0x40000+x>>20%4096*8, 8
		case 1:
			r.Class, r.MemAddr, r.MemWidth = trace.ClassStore, 0x40000+x>>20%4096*8, 8
		case 2:
			r.Class = trace.ClassMul
		case 3:
			r.Class, r.Taken, r.Target = trace.ClassBranch, x>>56%2 == 0, 0x1000+x>>20%512*4
		case 4:
			if x>>56%16 == 0 {
				// A mode switch: a taken jump to target 0.
				r.Class, r.Taken, r.Target = trace.ClassJump, true, 0
			}
		}
		recs = append(recs, r)
	}
	return recs
}

// TestAppendBatchMatchesAppend feeds one stream record by record and in
// batches of uneven sizes: both models must end in the same state.
func TestAppendBatchMatchesAppend(t *testing.T) {
	recs := mixedStream(20_000)
	batched := func(s trace.BatchSink) {
		sizes := []int{1, 7, 2048, 333, 4096, 50}
		for i, k := 0, 0; i < len(recs); k++ {
			j := min(i+sizes[k%len(sizes)], len(recs))
			s.AppendBatch(recs[i:j])
			i = j
		}
	}

	one, many := NewOoO(DefaultOoO()), NewOoO(DefaultOoO())
	feed(one, recs)
	batched(many)
	if a, b := one.Finish(), many.Finish(); a != b {
		t.Errorf("OoO: Append gives %+v, AppendBatch %+v", a, b)
	}

	ione, imany := NewILDP(DefaultILDP()), NewILDP(DefaultILDP())
	feed(ione, recs)
	batched(imany)
	if a, b := ione.Finish(), imany.Finish(); a != b {
		t.Errorf("ILDP: Append gives %+v, AppendBatch %+v", a, b)
	}
	if a, b := ione.PEDistribution(), imany.PEDistribution(); !reflect.DeepEqual(a, b) {
		t.Errorf("ILDP PE distribution: Append gives %v, AppendBatch %v", a, b)
	}
	if r := one.Finish(); r.Insts != uint64(len(recs)) || r.Episodes == 0 {
		t.Errorf("stream retired %d of %d records in %d episodes", r.Insts, len(recs), r.Episodes)
	}
}
