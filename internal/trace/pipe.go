package trace

import (
	"sync"
	"sync/atomic"
)

// PipeBatch is the number of records a Pipe hands its consumer at a
// time. With pipeDepth batches of 48-byte records, a pipe holds about
// 290 KB.
const PipeBatch = 2048

// pipeDepth is the number of batches a pipe owns: one the producer
// fills, one the consumer feeds, and one queued between them.
const pipeDepth = 3

// stageChunk is the most records the producer runs the stage over at a
// time. Between chunks it looks for a free batch again, so a batch the
// consumer frees waits at most one chunk for the producer, and so does
// a consumer that finds its batch partly staged.
const stageChunk = 256

// BatchSink consumes a committed-instruction stream a batch at a time,
// in stream order. The batch is only valid during the call.
type BatchSink interface {
	AppendBatch([]Rec)
}

// Stage is a pass over a record stream that needs no result of the
// stream's destination: a timing model's fetch stage. A Pipe runs it
// over each record exactly once, in stream order, before the
// destination sees the record's batch; one call may cover a batch or a
// run of records within one. It may write each record's Verdict and
// nothing else.
type Stage interface {
	StageBatch([]Rec)
}

// Pipe is a Sink that feeds its records, in order, to a BatchSink on a
// goroutine of its own, so the stream's producer and its consumer run
// at once. The producer fills batches of PipeBatch records; when it is
// a whole pipe ahead of the consumer, Append blocks until the consumer
// frees a batch. The consumer goroutine belongs to the Pipe: NewPipe
// starts it, and Close returns once it has exited.
//
// Each record passes through the pipe's Stage before the destination
// sees it, and whichever goroutine reaches the record first runs the
// stage over it: the producer, over the batches queued ahead of the
// consumer, oldest first and a chunk at a time, but only while it
// would otherwise wait for a free batch and finds the lock free; else
// the consumer, over whatever of its batch is left, just before it
// feeds the batch on. A lock guards the stage and the queue of batches
// it has not yet run over, so the stage runs on one goroutine at a
// time and in stream order.
//
// A panic in the stage or the destination, on either goroutine, is
// recovered. The consumer then drops, but keeps draining, the batch it
// was raised on and every later one, so the producer never blocks on a
// pipe nobody reads. Close returns the panic value to the producer's
// goroutine.
type Pipe struct {
	cur  []Rec      // the batch the producer is filling
	full chan []Rec // filled batches, in stream order
	free chan []Rec // batches the consumer has finished with
	done chan struct{}

	mu    sync.Mutex
	stage Stage
	// queue holds the batches sent to the consumer, in stream order,
	// from the oldest the stage has not run over to its end; sent and
	// staged count the batches sent and wholly staged so far, and part
	// the records staged of the next. Staging stops for good at the
	// first panic, in the stage or the destination, which stopped keeps.
	// The producer publishes a batch in queue by raising sent, so that
	// sending takes no lock, and staged is also read without the lock,
	// so that the consumer never waits on the producer's staging of a
	// later batch than its own.
	queue   [pipeDepth][]Rec
	sent    atomic.Int64
	staged  atomic.Int64
	part    int
	stopped any

	// panicked is the value the stage or the destination panicked with.
	// The consumer writes it before it closes done, and Close reads it
	// after.
	panicked any
	closed   bool
}

// NewPipe starts a pipe that runs stage over each batch and then feeds
// it to dst. The caller must Close it.
func NewPipe(stage Stage, dst BatchSink) *Pipe {
	// Both channels can hold every batch the pipe owns, so neither the
	// producer's send nor the consumer's return of a batch ever waits
	// for room; the producer waits only for a free batch.
	p := &Pipe{
		cur:   make([]Rec, 0, PipeBatch),
		full:  make(chan []Rec, pipeDepth),
		free:  make(chan []Rec, pipeDepth),
		done:  make(chan struct{}),
		stage: stage,
	}
	for i := 1; i < pipeDepth; i++ {
		p.free <- make([]Rec, 0, PipeBatch)
	}
	go p.consume(dst)
	return p
}

// Append implements Sink.
func (p *Pipe) Append(r Rec) {
	p.cur = append(p.cur, r)
	if len(p.cur) == PipeBatch {
		p.send()
		p.cur = p.nextFree()[:0]
	}
}

// send queues the producer's batch for the stage and hands it to the
// consumer.
func (p *Pipe) send() {
	n := p.sent.Load()
	p.queue[n%pipeDepth] = p.cur
	p.sent.Store(n + 1)
	p.full <- p.cur
}

// nextFree returns a free batch. While none is free, the producer runs
// the stage over queued batches, oldest first, instead of waiting.
func (p *Pipe) nextFree() []Rec {
	for {
		select {
		case b := <-p.free:
			return b
		default:
		}
		// A consumer holding the lock is staging its own batch: the
		// producer is behind, so it waits for a free batch instead.
		n := 0
		if p.mu.TryLock() {
			if p.sent.Load() > p.staged.Load() {
				n = p.runStage(stageChunk)
			}
			p.mu.Unlock()
		}
		if n == 0 {
			return <-p.free
		}
	}
}

// runStage runs the stage over up to limit records of the oldest batch
// it has not finished, which must exist, and returns how many it ran
// over. It runs over none once staging has stopped. The caller holds
// mu.
func (p *Pipe) runStage(limit int) (n int) {
	if p.stopped != nil {
		return 0
	}
	defer func() {
		if r := recover(); r != nil {
			p.stopped = r
			n = 0
		}
	}()
	i := p.staged.Load() % pipeDepth
	b := p.queue[i]
	n = min(limit, len(b)-p.part)
	p.stage.StageBatch(b[p.part : p.part+n])
	if p.part += n; p.part == len(b) {
		p.queue[i] = nil
		p.part = 0
		p.staged.Add(1)
	}
	return n
}

// Close hands the consumer the last, partial batch, waits until it has
// fed every record and exited, and returns the value the stage or the
// destination panicked with, or nil. Only the first call does anything;
// later ones return nil.
func (p *Pipe) Close() any {
	if p.closed {
		return nil
	}
	p.closed = true
	if len(p.cur) > 0 {
		p.send()
	}
	p.cur = nil
	close(p.full)
	<-p.done
	return p.panicked
}

func (p *Pipe) consume(dst BatchSink) {
	defer close(p.done)
	for n := int64(0); ; n++ {
		b, ok := <-p.full
		if !ok {
			return
		}
		// Batch n is staged unless staging has stopped: the consumer,
		// being in stream order, can only find batch n itself still to
		// finish. Once the consumer drops batches, staging stops, so the
		// stage never skips one.
		if p.panicked != nil || p.staged.Load() == n {
			p.mu.Lock()
			if p.panicked != nil {
				p.stopped = p.panicked
			} else if p.staged.Load() == n {
				if p.runStage(len(b)); p.staged.Load() == n {
					p.panicked = p.stopped
				}
			}
			p.mu.Unlock()
		}
		if p.panicked == nil {
			p.feed(dst, b)
		}
		p.free <- b
	}
}

// feed hands one batch to dst, recording a panic instead of letting it
// end the program from a goroutine nobody can recover on.
func (p *Pipe) feed(dst BatchSink, b []Rec) {
	defer func() {
		if r := recover(); r != nil {
			p.panicked = r
		}
	}()
	dst.AppendBatch(b)
}
