package prof

import (
	"reflect"
	"testing"
)

// feed drives a profiler with a small deterministic execution: frames
// entering and leaving with retiring records in between. Used by the
// ring and sampling tests; the golden exporter tests use goldenFeed.
func feed(p *Profiler, activations int) {
	clock := int64(0)
	info := FragInfo{Insts: 8, SrcInsts: 6, Strands: 2, MaxStrand: 4}
	var iTotal, vTotal uint64
	for a := 0; a < activations; a++ {
		id := int32(a % 3)
		p.FragEnter(id, 0x10000+uint64(id)*0x40, info, iTotal, vTotal)
		for k := 0; k < 4; k++ {
			clock += 2
			p.Retire(k%2, clock, uint8(k%3))
			iTotal++
			vTotal++
		}
		p.Chain(ChainDirect)
	}
	p.FragExit(ExitVM, iTotal, vTotal)
	p.Finish()
}

func TestRingWraparound(t *testing.T) {
	p := New(Config{Capacity: 16})
	feed(p, 50) // 50 enters + 50 chains + exits/samples: far beyond 16

	evs := p.Events()
	if len(evs) != 16 {
		t.Fatalf("ring kept %d events, want capacity 16", len(evs))
	}
	if p.EventsRecorded() <= 16 {
		t.Fatalf("recorded %d events, want > capacity", p.EventsRecorded())
	}
	if got, want := p.EventsDropped(), p.EventsRecorded()-16; got != want {
		t.Fatalf("dropped = %d, want %d", got, want)
	}
	// Oldest-first: timestamps never decrease, and the retained suffix is
	// the newest portion of the stream (its last event is the final exit).
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("events out of order at %d: %d < %d", i, evs[i].TS, evs[i-1].TS)
		}
	}
	if last := evs[len(evs)-1]; last.Kind != EvExit {
		t.Fatalf("last retained event is %v, want the final exit", last.Kind)
	}
}

func TestRingShortRunKeepsEverything(t *testing.T) {
	p := New(Config{Capacity: 1024})
	feed(p, 5)
	if p.EventsDropped() != 0 {
		t.Fatalf("short run dropped %d events", p.EventsDropped())
	}
	if got := p.EventsRecorded(); uint64(len(p.Events())) != got {
		t.Fatalf("Events() returned %d of %d recorded", len(p.Events()), got)
	}
}

// TestSamplingDeterministic checks two things: the same feed always
// records the same sampled events, and sampling never perturbs the
// aggregation (cycles, entries, instruction counts stay exact).
func TestSamplingDeterministic(t *testing.T) {
	full := New(Config{})
	s1 := New(Config{SampleEvery: 3})
	s2 := New(Config{SampleEvery: 3})
	feed(full, 30)
	feed(s1, 30)
	feed(s2, 30)

	e1, e2 := s1.Events(), s2.Events()
	if len(e1) != len(e2) {
		t.Fatalf("sampled runs recorded %d vs %d events", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("sampled event %d differs: %+v vs %+v", i, e1[i], e2[i])
		}
	}
	if len(e1) >= len(full.Events()) {
		t.Fatalf("sampling 1/3 recorded %d events, full run %d", len(e1), len(full.Events()))
	}

	pf, ps := full.Profile(), s1.Profile()
	if pf.TotalCycles != ps.TotalCycles || pf.Activations != ps.Activations {
		t.Fatalf("sampling changed aggregation: %d/%d cycles, %d/%d activations",
			pf.TotalCycles, ps.TotalCycles, pf.Activations, ps.Activations)
	}
	if len(pf.Frags) != len(ps.Frags) {
		t.Fatalf("sampling changed fragment count: %d vs %d", len(pf.Frags), len(ps.Frags))
	}
	for i := range pf.Frags {
		if !reflect.DeepEqual(pf.Frags[i], ps.Frags[i]) {
			t.Fatalf("fragment %d aggregate differs under sampling:\n%+v\n%+v", i, pf.Frags[i], ps.Frags[i])
		}
	}
}

func TestNilProfilerIsNoop(t *testing.T) {
	var p *Profiler
	p.FragEnter(0, 0x1000, FragInfo{}, 0, 0)
	p.EnterDispatch(0, 0)
	p.Chain(ChainDirect)
	p.FragExit(ExitVM, 0, 0)
	p.Retire(0, 2, 0)
	p.Translate(0x1000, 3)
	p.Evict(0, 0x1000)
	p.Finish()
	if p.Events() != nil || p.EventsRecorded() != 0 || p.Clock() != -1 {
		t.Fatal("nil profiler retained state")
	}
	pr := p.Profile()
	if pr.TotalCycles != 0 || len(pr.Frags) != 0 {
		t.Fatal("nil profiler produced a non-empty profile")
	}
}

func TestConservationWithVMFrame(t *testing.T) {
	p := New(Config{})
	// Records before any fragment entry land on the VM pseudo-frame.
	p.Retire(0, 5, 0xFF)
	p.FragEnter(0, 0x2000, FragInfo{Insts: 4}, 0, 0)
	p.Retire(0, 10, 1)
	p.FragExit(ExitVM, 4, 3)
	p.Retire(0, 12, 0xFF)
	p.Finish()

	pr := p.Profile()
	if err := pr.CheckConservation(p.Clock() + 1); err != nil {
		t.Fatal(err)
	}
	if pr.VMCycles == 0 {
		t.Fatal("pre-fragment and post-fragment records were not charged to the VM frame")
	}
}
