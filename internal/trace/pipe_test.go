package trace

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// batchBuffer is a BatchSink that keeps every record and batch size.
type batchBuffer struct {
	recs  []Rec
	sizes []int
	// panicAt, when positive, is the batch number (from 1) to panic on.
	panicAt int
	// before, when set, runs before each batch with its index (from 0).
	before func(batch int)
	// whole, when set, receives a value each time the records taken
	// reach a whole number of batches.
	whole chan struct{}
	watch
}

// watch follows a test destination for its stage. The consumer runs the
// stage only between batches, and only over the batch it feeds next, so
// a stage run while the destination is busy, or over a later batch
// than the next it starts, ran on the producer's goroutine.
type watch struct {
	busy    atomic.Bool
	started atomic.Int64 // batches the destination has started
}

func (w *watch) enter() {
	w.started.Add(1)
	w.busy.Store(true)
}

func (w *watch) leave() { w.busy.Store(false) }

// byProducer reports whether a stage run from stream position pos, in
// records, surely runs on the producer's goroutine.
func (w *watch) byProducer(pos uint64) bool {
	return w.busy.Load() || int64(pos/PipeBatch) > w.started.Load()
}

// orderStage is a Stage that checks it sees every record once and in
// order, by PC, and marks each record it has run over.
type orderStage struct {
	t    *testing.T
	next uint64
	// panicAt, when positive, is the PC to panic on; before, when set,
	// runs just before that panic.
	panicAt uint64
	before  func()
	// dst, when set, is the pipe's destination, and byProducer counts
	// the records the stage surely ran over on the producer's goroutine.
	dst        *batchBuffer
	byProducer int
}

func (s *orderStage) StageBatch(recs []Rec) {
	if s.dst != nil && s.dst.byProducer(s.next) {
		s.byProducer += len(recs)
	}
	for i := range recs {
		if s.panicAt > 0 && recs[i].PC == s.panicAt {
			if s.before != nil {
				s.before()
			}
			panic("stage broke")
		}
		if recs[i].PC != s.next || recs[i].Verdict != 0 {
			s.t.Errorf("stage saw PC %d verdict %d, want PC %d verdict 0", recs[i].PC, recs[i].Verdict, s.next)
		}
		s.next++
		recs[i].Verdict = 1
	}
}

// checkStaged fails t unless the stage ran over every record dst saw.
func checkStaged(t *testing.T, dst *batchBuffer) {
	t.Helper()
	for _, r := range dst.recs {
		if r.Verdict != 1 {
			t.Fatalf("record %d reached the destination unstaged", r.PC)
		}
	}
}

func (b *batchBuffer) AppendBatch(recs []Rec) {
	b.enter()
	defer b.leave()
	if b.before != nil {
		b.before(len(b.sizes))
	}
	b.sizes = append(b.sizes, len(recs))
	if len(b.sizes) == b.panicAt {
		panic("model broke")
	}
	b.recs = append(b.recs, recs...)
	if b.whole != nil && len(b.recs)%PipeBatch == 0 {
		b.whole <- struct{}{}
	}
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
		p := NewPipe(&orderStage{t: t}, dst)
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
		checkStaged(t, dst)
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
	p := NewPipe(&orderStage{t: t}, dst)
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

// TestPipeStageOncePerBatch runs the stage over a stream that ends on a
// partial batch, once down each path: a slow destination leaves the
// producer waiting for free batches, so it runs the stage over queued
// ones; a producer that waits for each
// batch to be fed never lacks a free batch and leaves it all to the
// consumer. Either way the stage sees each record once, in order,
// before the destination does.
func TestPipeStageOncePerBatch(t *testing.T) {
	const n = 5*PipeBatch + 17
	for _, tc := range []struct {
		name     string
		producer bool // whether the producer must run the stage
	}{{"slow destination", true}, {"slow producer", false}} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			dst := &batchBuffer{whole: make(chan struct{}, 8)}
			stage := &orderStage{t: t, dst: dst}
			if tc.producer {
				dst.before = func(int) { time.Sleep(time.Millisecond) }
			}
			p := NewPipe(stage, dst)
			for i := 0; i < n; i++ {
				p.Append(Rec{PC: uint64(i)})
				if !tc.producer && (i+1)%PipeBatch == 0 {
					<-dst.whole // the consumer has fed the batch
				}
			}
			if r := p.Close(); r != nil {
				t.Fatalf("Close = %v, want nil", r)
			}
			if len(dst.recs) != n || stage.next != n {
				t.Fatalf("stage saw %d records and destination %d, want %d", stage.next, len(dst.recs), n)
			}
			checkStaged(t, dst)
			if tc.producer != (stage.byProducer > 0) {
				t.Errorf("producer ran the stage over %d of %d records", stage.byProducer, n)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestPipeStagePanic panics in the stage, in the third batch, on the
// producer's goroutine and on the consumer's. Close must return the
// panic value, the destination must get exactly the two batches staged
// before it, and the producer must get through many more batches than
// the pipe holds.
func TestPipeStagePanic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		producer bool // whether the producer raises the panic
	}{{"producer", true}, {"consumer", false}} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			panicking := make(chan struct{})
			dst := &batchBuffer{whole: make(chan struct{}, 16)}
			stage := &orderStage{t: t, panicAt: 2*PipeBatch + 5, before: func() { close(panicking) }, dst: dst}
			held := make(chan struct{})
			if tc.producer {
				dst.before = func(batch int) {
					if batch == 0 {
						// Hold the consumer in batch 0 until the stage
						// has panicked: only the producer can have run
						// it over the third batch.
						close(held)
						select {
						case <-panicking:
						case <-time.After(10 * time.Second):
							t.Error("the producer never ran the stage over the third batch")
						}
					}
				}
			}
			p := NewPipe(stage, dst)
			for i := 0; i < 10*PipeBatch+5; i++ {
				if tc.producer && i == 3*PipeBatch-1 {
					// The next record sends the third batch, and the
					// producer waits for a free one: see the consumer
					// held first, off the pipe's lock.
					<-held
				}
				p.Append(Rec{PC: uint64(i)})
				if !tc.producer && (i+1)%PipeBatch == 0 {
					// Send the next batch only once the consumer has
					// fed this one, so the producer never waits for a
					// free batch and never runs the stage.
					select {
					case <-dst.whole:
					case <-panicking:
					}
				}
			}
			if r := p.Close(); r != "stage broke" {
				t.Fatalf("Close = %v, want the stage's panic value", r)
			}
			if len(dst.recs) != 2*PipeBatch {
				t.Errorf("destination fed %d records, want the 2 batches staged", len(dst.recs))
			}
			checkStaged(t, dst)
			if tc.producer != (stage.byProducer > 0) {
				t.Errorf("producer ran the stage over %d records", stage.byProducer)
			}
			waitGoroutines(t, base)
		})
	}
}

// spinSink is a BatchSink that takes a while over each batch without
// allocating or sleeping.
type spinSink struct {
	sum uint64
	watch
}

func (s *spinSink) AppendBatch(recs []Rec) {
	s.enter()
	defer s.leave()
	for k := 0; k < 50; k++ {
		for i := range recs {
			s.sum += recs[i].PC * uint64(k)
		}
	}
}

// countStage is a Stage that does nothing but count the records it
// runs over, and those it surely runs over on the producer's goroutine.
type countStage struct {
	dst        *spinSink
	pos        uint64
	byProducer atomic.Int64
}

func (s *countStage) StageBatch(recs []Rec) {
	if s.dst.byProducer(s.pos) {
		s.byProducer.Add(int64(len(recs)))
	}
	s.pos += uint64(len(recs))
}

// TestPipeSendAllocs fills and sends batches into a running pipe whose
// destination is slower than its producer, so the producer runs the
// stage while it waits: none of that may allocate.
func TestPipeSendAllocs(t *testing.T) {
	dst := &spinSink{}
	stage := &countStage{dst: dst}
	p := NewPipe(stage, dst)
	defer p.Close()
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < PipeBatch; i++ {
			p.Append(Rec{PC: uint64(i)})
		}
	})
	if allocs != 0 {
		t.Errorf("filling and sending a batch allocates %v times", allocs)
	}
	if stage.byProducer.Load() == 0 {
		t.Error("the producer never ran the stage; the test missed its path")
	}
}

// TestRecSize pins a record at 48 bytes: the Verdict byte sits in what
// was padding, and the pipe's size in PipeBatch's comment assumes it.
func TestRecSize(t *testing.T) {
	if s := unsafe.Sizeof(Rec{}); s != 48 {
		t.Errorf("unsafe.Sizeof(Rec{}) = %d, want 48", s)
	}
}
