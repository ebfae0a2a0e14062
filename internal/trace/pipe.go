package trace

// PipeBatch is the number of records a Pipe hands its consumer at a
// time. With pipeDepth batches of 48-byte records, a pipe holds about
// 290 KB.
const PipeBatch = 2048

// pipeDepth is the number of batches a pipe owns: one the producer
// fills, one the consumer feeds, and one queued between them.
const pipeDepth = 3

// BatchSink consumes a committed-instruction stream a batch at a time,
// in stream order. The batch is only valid during the call.
type BatchSink interface {
	AppendBatch([]Rec)
}

// Pipe is a Sink that feeds its records, in order, to a BatchSink on a
// goroutine of its own, so the stream's producer and its consumer run
// at once. The producer fills batches of PipeBatch records; when it is
// a whole pipe ahead of the consumer, Append blocks until the consumer
// frees a batch. The consumer goroutine belongs to the Pipe: NewPipe
// starts it, and Close returns once it has exited.
//
// A panic in the destination is recovered on the consumer goroutine,
// which then drops, but keeps draining, every later batch, so the
// producer never blocks on a pipe nobody reads. Close returns the panic
// value to the producer's goroutine.
type Pipe struct {
	cur  []Rec      // the batch the producer is filling
	full chan []Rec // filled batches, in stream order
	free chan []Rec // batches the consumer has finished with
	done chan struct{}

	// panicked is the destination's panic value. The consumer writes it
	// before it closes done, and Close reads it after.
	panicked any
	closed   bool
}

// NewPipe starts a pipe into dst. The caller must Close it.
func NewPipe(dst BatchSink) *Pipe {
	// Both channels can hold every batch the pipe owns, so neither the
	// producer's send nor the consumer's return of a batch ever waits
	// for room; the producer waits only for a free batch.
	p := &Pipe{
		cur:  make([]Rec, 0, PipeBatch),
		full: make(chan []Rec, pipeDepth),
		free: make(chan []Rec, pipeDepth),
		done: make(chan struct{}),
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
		p.full <- p.cur
		p.cur = (<-p.free)[:0]
	}
}

// Close hands the consumer the last, partial batch, waits until it has
// fed every record and exited, and returns the value the destination
// panicked with, or nil. Only the first call does anything; later ones
// return nil.
func (p *Pipe) Close() any {
	if p.closed {
		return nil
	}
	p.closed = true
	if len(p.cur) > 0 {
		p.full <- p.cur
	}
	p.cur = nil
	close(p.full)
	<-p.done
	return p.panicked
}

func (p *Pipe) consume(dst BatchSink) {
	defer close(p.done)
	for b := range p.full {
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
