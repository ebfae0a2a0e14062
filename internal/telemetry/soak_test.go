package telemetry_test

import (
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ildp/accdbt/internal/experiments"
	"github.com/ildp/accdbt/internal/metrics"
	"github.com/ildp/accdbt/internal/telemetry"
	"github.com/ildp/accdbt/internal/vm"
)

// TestSlowConsumerSoak pins the isolation guarantee under a hostile
// consumer: an SSE client that connects and never reads must (a) not
// delay VM retirement beyond a generous wall-time bound relative to an
// unattached baseline, and (b) show a nonzero drop count — the plane
// sheds its events instead of applying backpressure. With a single
// subscriber the broadcaster's SubsDropped aggregate is exactly that
// client's per-client drop count.
func TestSlowConsumerSoak(t *testing.T) {
	const runs = 3

	// Unattached baseline.
	start := time.Now()
	for i := 0; i < runs; i++ {
		if _, err := experiments.Run(gzipSpec(t)); err != nil {
			t.Fatal(err)
		}
	}
	baseline := time.Since(start)

	// Plane with a deliberately small per-client buffer and a stalled
	// raw-socket client on /events.
	reg := metrics.NewRegistry()
	plane := telemetry.New(telemetry.Options{Logger: discardLogger()})
	defer plane.Close()
	sess := plane.Register(telemetry.SessionConfig{
		Name: "soak", Workload: "gzip", Machine: "ildp-modified", Registry: reg,
	})
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	raw, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("GET /events HTTP/1.1\r\nHost: t\r\nAccept: text/event-stream\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for plane.Broadcaster().Subscribers() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled client never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Saturate the stalled client so the drop policy is engaged the
	// whole time the VM runs: pump synthetic events until its buffer
	// overflows. Publishing is non-blocking by contract, so this loop
	// cannot wedge even though nobody is reading.
	deadline = time.Now().Add(15 * time.Second)
	var pumped int32
	for plane.Broadcaster().SubsDropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled client never dropped an event")
		}
		reg.Event(metrics.Event{Kind: metrics.EventChain, Frag: pumped})
		pumped++
	}

	// Timed attached runs against the saturated, stalled consumer.
	start = time.Now()
	for i := 0; i < runs; i++ {
		spec := gzipSpec(t)
		spec.Metrics = reg
		spec.Tune = func(cfg *vm.Config) { cfg.Poll = sess.Poll }
		spec.Attach = func(v *vm.VM) { sess.Attach(telemetry.ProbeVM(v, nil)) }
		if _, err := experiments.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	attached := time.Since(start)
	sess.Finish()

	drops := plane.Broadcaster().SubsDropped()
	if drops == 0 {
		t.Error("per-client drop count is zero under a stalled consumer")
	}
	// The bound is deliberately loose — it only has to catch the
	// pathological case where the stalled client's backpressure reaches
	// the VM (which would multiply wall time by orders of magnitude,
	// not constants).
	bound := baseline*5 + 2*time.Second
	if attached > bound {
		t.Errorf("attached runs took %v with a stalled consumer (baseline %v, bound %v)",
			attached, baseline, bound)
	}
	t.Logf("baseline=%v attached=%v pumped=%d drops=%d", baseline, attached, pumped, drops)
}
