package trace

import (
	"runtime"
	"testing"
	"time"
)

// batchBuffer is a BatchSink that keeps every record and batch size.
type batchBuffer struct {
	recs  []Rec
	sizes []int
	// panicAt, when positive, is the batch number (from 1) to panic on.
	panicAt int
}

func (b *batchBuffer) AppendBatch(recs []Rec) {
	b.sizes = append(b.sizes, len(recs))
	if len(b.sizes) == b.panicAt {
		panic("model broke")
	}
	b.recs = append(b.recs, recs...)
}

// waitGoroutines waits until at most want goroutines run: a goroutine
// that has signalled its exit can take a moment to leave the count.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, want %d", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestPipeInOrder sends a stream that is not a whole number of batches
// through a pipe: the destination sees every record in order, in
// batches of at most PipeBatch.
func TestPipeInOrder(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, n := range []int{0, 1, PipeBatch, 5*PipeBatch + 17} {
		dst := &batchBuffer{}
		p := NewPipe(dst)
		for i := 0; i < n; i++ {
			p.Append(Rec{PC: uint64(i)})
		}
		if r := p.Close(); r != nil {
			t.Fatalf("%d records: Close = %v, want nil", n, r)
		}
		if len(dst.recs) != n {
			t.Fatalf("%d records: destination saw %d", n, len(dst.recs))
		}
		for i, r := range dst.recs {
			if r.PC != uint64(i) {
				t.Fatalf("%d records: record %d has PC %d", n, i, r.PC)
			}
		}
		for _, s := range dst.sizes {
			if s == 0 || s > PipeBatch {
				t.Fatalf("%d records: batch of %d", n, s)
			}
		}
		if r := p.Close(); r != nil {
			t.Fatalf("second Close = %v, want nil", r)
		}
		waitGoroutines(t, base)
	}
}

// TestPipePanicDrains panics in the destination's first batch. The
// producer must still get through many more batches than the pipe
// holds, and Close must return the panic value.
func TestPipePanicDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	dst := &batchBuffer{panicAt: 1}
	p := NewPipe(dst)
	for i := 0; i < 10*PipeBatch+5; i++ {
		p.Append(Rec{PC: uint64(i)})
	}
	if r := p.Close(); r != "model broke" {
		t.Fatalf("Close = %v, want the destination's panic value", r)
	}
	if len(dst.sizes) != 1 {
		t.Errorf("destination fed %d batches after its panic, want none", len(dst.sizes)-1)
	}
	waitGoroutines(t, base)
}
