package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/metrics"
)

// collect drains a subscriber until n events arrive or the deadline
// passes, returning what it got.
func collect(t *testing.T, sub *Subscriber, n int, deadline time.Duration) [][]byte {
	t.Helper()
	var out [][]byte
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for len(out) < n {
		select {
		case payload, ok := <-sub.Events():
			if !ok {
				return out
			}
			out = append(out, payload)
		case <-timer.C:
			return out
		}
	}
	return out
}

// TestBroadcastFanout delivers every published event, in order, to two
// concurrent subscribers.
func TestBroadcastFanout(t *testing.T) {
	b := NewBroadcaster(16, 16)
	defer b.Close()
	s1, s2 := b.Subscribe(), b.Subscribe()
	defer s1.Close()
	defer s2.Close()

	const n = 5
	for i := 0; i < n; i++ {
		b.Publish(StreamEvent{Session: "1",
			Event: metrics.Event{Kind: metrics.EventInstall, Seq: i}})
	}
	for _, sub := range []*Subscriber{s1, s2} {
		got := collect(t, sub, n, 2*time.Second)
		if len(got) != n {
			t.Fatalf("subscriber %d: got %d events, want %d", sub.ID(), len(got), n)
		}
		for i, payload := range got {
			var e StreamEvent
			if err := json.Unmarshal(payload, &e); err != nil {
				t.Fatalf("subscriber %d event %d: %v", sub.ID(), i, err)
			}
			if e.Session != "1" || e.Event.Seq != i {
				t.Errorf("subscriber %d event %d: got session=%q seq=%d",
					sub.ID(), i, e.Session, e.Event.Seq)
			}
		}
		if d := sub.Dropped(); d != 0 {
			t.Errorf("subscriber %d: %d drops on an uncontended stream", sub.ID(), d)
		}
	}
	if b.Delivered() != 2*n {
		t.Errorf("delivered = %d, want %d", b.Delivered(), 2*n)
	}
}

// TestBroadcastSlowConsumer pins the drop policy: a subscriber that
// never drains loses exactly the events past its buffer — counted on
// the subscriber and on the broadcaster — while a concurrent healthy
// subscriber still receives everything.
func TestBroadcastSlowConsumer(t *testing.T) {
	const n, stallBuf = 100, 4
	b := NewBroadcaster(n, n)
	defer b.Close()
	healthy := b.SubscribeBuf(n)
	defer healthy.Close()
	stalled := b.SubscribeBuf(stallBuf)
	defer stalled.Close()

	for i := 0; i < n; i++ {
		b.Publish(StreamEvent{Session: "1",
			Event: metrics.Event{Kind: metrics.EventTranslate, Seq: i}})
	}
	// Wait for the dispatcher to finish every delivery attempt: n
	// events times two subscribers, each either delivered or dropped.
	deadline := time.Now().Add(5 * time.Second)
	for b.Delivered()+b.SubsDropped() < 2*n {
		if time.Now().After(deadline) {
			t.Fatalf("dispatcher stalled: delivered=%d dropped=%d",
				b.Delivered(), b.SubsDropped())
		}
		time.Sleep(time.Millisecond)
	}

	got := collect(t, healthy, n, 2*time.Second)
	if len(got) != n {
		t.Fatalf("healthy subscriber: got %d events, want %d", len(got), n)
	}
	if d := healthy.Dropped(); d != 0 {
		t.Errorf("healthy subscriber dropped %d events", d)
	}
	if d := stalled.Dropped(); d != n-stallBuf {
		t.Errorf("stalled subscriber dropped %d, want %d", d, n-stallBuf)
	}
	if d := b.SubsDropped(); d != n-stallBuf {
		t.Errorf("broadcaster SubsDropped = %d, want %d", d, n-stallBuf)
	}
}

// TestBroadcastPublishNeverBlocks: with the dispatcher gone (Close)
// nothing drains the intake ring, so Publish must fill it and then
// return immediately, counting the overflow.
func TestBroadcastPublishNeverBlocks(t *testing.T) {
	const buf, extra = 8, 10
	b := NewBroadcaster(buf, 1)
	b.Close()
	start := time.Now()
	for i := 0; i < buf+extra; i++ {
		b.Publish(StreamEvent{Session: "1", Event: metrics.Event{Seq: i}})
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("publishing into a dead broadcaster took %v", el)
	}
	if d := b.InDropped(); d < extra {
		t.Errorf("intake drops = %d, want at least %d", d, extra)
	}
}

// TestBroadcastCloseSemantics: subscribing after Close yields a closed
// channel, Close is idempotent, and subscriber Close is idempotent and
// safe after broadcaster Close.
func TestBroadcastCloseSemantics(t *testing.T) {
	b := NewBroadcaster(4, 4)
	s := b.Subscribe()
	b.Close()
	b.Close()
	if _, ok := <-s.Events(); ok {
		t.Error("subscriber channel open after broadcaster Close")
	}
	s.Close()
	s.Close()
	late := b.Subscribe()
	if _, ok := <-late.Events(); ok {
		t.Error("post-Close subscriber channel not closed")
	}
}

// TestSubscriberCloseDuringDeliver races subscriber churn against a
// busy dispatcher: a Subscriber.Close landing while deliver is offering
// an event must never close the channel under the send. Run under
// -race to see the interleaving.
func TestSubscriberCloseDuringDeliver(t *testing.T) {
	b := NewBroadcaster(64, 1)
	stop := make(chan struct{})
	published := make(chan struct{})
	go func() {
		defer close(published)
		for {
			select {
			case <-stop:
				return
			default:
				b.Publish(StreamEvent{Session: "s1"})
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b.Subscribe().Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-published
	b.Close()
	if n := b.Subscribers(); n != 0 {
		t.Errorf("%d subscribers left after every one closed", n)
	}
}
