package uarch

import (
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/trace"
)

// TestZeroConfigFinishes feeds a short stream to models whose machine
// parameters are zero: they take their Table 1 values instead of
// hanging (the OoO model with no function units) or dividing by zero
// (the ILDP model with no ROB).
func TestZeroConfigFinishes(t *testing.T) {
	var recs []trace.Rec
	for i := 0; i < 1000; i++ {
		r := aluRec(0x1000+uint64(i%64)*4, uint8(i%5), uint8(i%7))
		r.DstAcc = uint8(i % 4)
		if i%3 == 0 {
			r.Class, r.MemAddr, r.MemWidth = trace.ClassLoad, 0x20000+uint64(i)*8, 8
		}
		recs = append(recs, r)
	}
	for _, tc := range []struct {
		name  string
		model interface {
			trace.Sink
			Finish() Result
		}
	}{
		{"NewOoO(DefaultILDP())", NewOoO(DefaultILDP())},
		{"NewOoO(Config{})", NewOoO(Config{})},
		{"NewILDP(Config{})", NewILDP(Config{})},
	} {
		done := make(chan Result, 1)
		go func() {
			feed(tc.model, recs)
			done <- tc.model.Finish()
		}()
		select {
		case r := <-done:
			if r.Insts != uint64(len(recs)) || r.Cycles <= 0 {
				t.Errorf("%s: %d records in %d cycles, want %d records", tc.name, r.Insts, r.Cycles, len(recs))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no result after 10s", tc.name)
		}
	}
}

// TestRetireBWMatchesBookRing checks the in-order retirement booking
// against a cycle-tagged booking ring on requests that, like retirement,
// never ask for a cycle earlier than the last one booked.
func TestRetireBWMatchesBookRing(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		var bw retireBW
		ring := newBookRing()
		last, x := int64(0), uint64(12345)
		for i := 0; i < 100000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			// Mostly stalls behind the last cycle, sometimes a jump ahead.
			done := last - int64(x%4)
			if x%8 == 0 {
				done = last + int64(x%40)
			}
			want := ring.reserve(max(done, last), uint16(width))
			if got := bw.retire(done, width); got != want {
				t.Fatalf("width %d, request %d (done %d): retireBW %d, bookRing %d", width, i, done, got, want)
			}
			last = want
		}
	}
}
