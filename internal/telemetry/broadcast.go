package telemetry

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"github.com/ildp/accdbt/internal/metrics"
)

// StreamEvent is one broadcast unit on the live event stream: a metrics
// lifecycle event tagged with the session it came from.
type StreamEvent struct {
	// Session is the plane-assigned session ID the event belongs to.
	Session string `json:"session"`
	// Event is the fragment lifecycle event as recorded by the
	// session's metrics registry.
	Event metrics.Event `json:"event"`
}

// Broadcaster fans StreamEvents out to any number of subscribers with a
// strict never-block-the-publisher contract. Publish is a non-blocking
// send into a bounded intake ring serviced by one dispatcher goroutine;
// when the ring is full the event is dropped and counted. The
// dispatcher marshals each event once and offers it to every
// subscriber's bounded buffer with another non-blocking send, so one
// stalled consumer only loses its own events — it can never delay the
// dispatcher, other subscribers, or (transitively) the VM goroutine
// publishing into the ring.
type Broadcaster struct {
	in   chan StreamEvent
	quit chan struct{}
	done chan struct{}

	// clientBuf is the buffer size given to each new subscriber; fixed
	// at construction.
	clientBuf int

	mu     sync.Mutex
	subs   map[int]*Subscriber
	nextID int
	closed bool

	published   atomic.Uint64
	inDropped   atomic.Uint64
	delivered   atomic.Uint64
	subsDropped atomic.Uint64
}

// Subscriber is one consumer of the broadcast stream. Events arrive as
// pre-marshalled JSON on the channel returned by Events; events the
// subscriber was too slow to drain are dropped and counted in Dropped.
type Subscriber struct {
	id int
	b  *Broadcaster
	ch chan []byte

	dropped   atomic.Uint64
	delivered atomic.Uint64
	closeOnce sync.Once
}

// defaultInBuf and defaultClientBuf size the intake ring and each
// subscriber's buffer when the caller passes a non-positive value.
const (
	defaultInBuf     = 1024
	defaultClientBuf = 256
)

// NewBroadcaster starts a broadcaster whose intake ring holds inBuf
// pending events and whose subscribers each buffer clientBuf marshalled
// events; non-positive sizes take the package defaults.
func NewBroadcaster(inBuf, clientBuf int) *Broadcaster {
	if inBuf <= 0 {
		inBuf = defaultInBuf
	}
	if clientBuf <= 0 {
		clientBuf = defaultClientBuf
	}
	b := &Broadcaster{
		in:        make(chan StreamEvent, inBuf),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		subs:      map[int]*Subscriber{},
		clientBuf: clientBuf,
	}
	go b.dispatch()
	return b
}

// dispatch is the broadcaster's single service goroutine: it drains the
// intake ring, marshals each event once, and offers it to every live
// subscriber without blocking.
func (b *Broadcaster) dispatch() {
	defer close(b.done)
	for {
		select {
		case e := <-b.in:
			b.deliver(e)
		case <-b.quit:
			// Drain what was already accepted so a Close immediately after
			// the final Publish still delivers the tail.
			for {
				select {
				case e := <-b.in:
					b.deliver(e)
				default:
					return
				}
			}
		}
	}
}

// deliver marshals one event and offers it to every subscriber. The
// offers are made under b.mu, so Subscriber.Close cannot close a
// channel between the subscriber lookup and the send; the offers never
// block, so the lock is held for one select per subscriber.
func (b *Broadcaster) deliver(e StreamEvent) {
	payload, err := json.Marshal(e)
	if err != nil {
		// metrics.Event marshals from plain fields; an error here would be
		// a programming bug, and losing the event is the only safe move.
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.subs {
		select {
		case s.ch <- payload:
			s.delivered.Add(1)
			b.delivered.Add(1)
		default:
			s.dropped.Add(1)
			b.subsDropped.Add(1)
		}
	}
}

// Publish offers an event to the broadcast stream and returns
// immediately. When the intake ring is full the event is dropped and
// counted; the caller is never blocked, so Publish is safe to invoke
// from a metrics.Registry tap on the VM goroutine.
func (b *Broadcaster) Publish(e StreamEvent) {
	select {
	case b.in <- e:
		b.published.Add(1)
	default:
		b.inDropped.Add(1)
	}
}

// Subscribe registers a new consumer with the broadcaster's default
// buffer and returns its subscriber handle. The caller must eventually
// call Subscriber.Close. Subscribing to a closed broadcaster returns a
// subscriber whose channel is already closed.
func (b *Broadcaster) Subscribe() *Subscriber { return b.SubscribeBuf(0) }

// SubscribeBuf is Subscribe with an explicit per-subscriber buffer
// size; non-positive takes the broadcaster default.
func (b *Broadcaster) SubscribeBuf(buf int) *Subscriber {
	if buf <= 0 {
		buf = b.clientBuf
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	s := &Subscriber{id: b.nextID, b: b, ch: make(chan []byte, buf)}
	if b.closed {
		close(s.ch)
		return s
	}
	b.subs[s.id] = s
	return s
}

// Close stops the dispatcher after draining already-accepted events and
// closes every subscriber channel. Publish after Close counts the event
// as an intake drop.
func (b *Broadcaster) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.quit)
	<-b.done
	b.mu.Lock()
	for id, s := range b.subs {
		close(s.ch)
		delete(b.subs, id)
	}
	b.mu.Unlock()
}

// Subscribers returns the current number of live subscribers.
func (b *Broadcaster) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// Published returns the number of events accepted into the intake ring.
func (b *Broadcaster) Published() uint64 { return b.published.Load() }

// InDropped returns the number of events dropped at the intake ring
// because the dispatcher was behind.
func (b *Broadcaster) InDropped() uint64 { return b.inDropped.Load() }

// Delivered returns the total number of event deliveries across all
// subscribers (one event delivered to three subscribers counts three).
func (b *Broadcaster) Delivered() uint64 { return b.delivered.Load() }

// SubsDropped returns the total number of per-subscriber drops: events
// a slow consumer's buffer had no room for.
func (b *Broadcaster) SubsDropped() uint64 { return b.subsDropped.Load() }

// Events returns the subscriber's delivery channel. It is closed when
// the subscriber or the broadcaster closes.
func (s *Subscriber) Events() <-chan []byte { return s.ch }

// ID returns the broadcaster-assigned subscriber ID (1-based, in
// subscription order).
func (s *Subscriber) ID() int { return s.id }

// Dropped returns how many events this subscriber lost to its full
// buffer.
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// Delivered returns how many events were buffered for this subscriber.
func (s *Subscriber) Delivered() uint64 { return s.delivered.Load() }

// Close deregisters the subscriber and closes its channel. Safe to call
// more than once and after the broadcaster itself closed.
func (s *Subscriber) Close() {
	s.closeOnce.Do(func() {
		s.b.mu.Lock()
		if _, live := s.b.subs[s.id]; live {
			delete(s.b.subs, s.id)
			close(s.ch)
		}
		s.b.mu.Unlock()
	})
}
