package bpred

import (
	"testing"
	"testing/quick"
)

func TestGShareLearnsLoop(t *testing.T) {
	g := DefaultGShare()
	pc := uint64(0x1000)
	// Warm-up: a loop branch taken 9 of 10 times.
	misses := 0
	for iter := 0; iter < 100; iter++ {
		for i := 0; i < 10; i++ {
			taken := i != 9
			if !g.Update(pc, taken) && iter > 10 {
				misses++
			}
		}
	}
	// A history-based predictor should learn the 10-iteration pattern
	// nearly perfectly after warm-up.
	if misses > 200 {
		t.Errorf("gshare missed %d times on a periodic pattern", misses)
	}
}

func TestGShareAlwaysTaken(t *testing.T) {
	g := DefaultGShare()
	miss := 0
	for i := 0; i < 1000; i++ {
		if !g.Update(0x4000, true) {
			miss++
		}
	}
	// Until the 12-bit history saturates at all-ones the branch visits a
	// fresh counter each time, so up to ~2x history-length training misses
	// are expected; after warm-up it must be perfect.
	if miss > 25 {
		t.Errorf("always-taken branch missed %d times during warm-up", miss)
	}
	missAfterWarm := 0
	for i := 0; i < 1000; i++ {
		if !g.Update(0x4000, true) {
			missAfterWarm++
		}
	}
	if missAfterWarm != 0 {
		t.Errorf("warm always-taken branch missed %d times", missAfterWarm)
	}
	if g.Lookups != 2000 {
		t.Errorf("lookups = %d, want 2000", g.Lookups)
	}
}

func TestGShareBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two size did not panic")
		}
	}()
	NewGShare(1000, 12)
}

func TestBTBBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count did not panic")
		}
	}()
	NewBTB(24, 2) // 12 sets
}

func TestBTBHitAfterUpdate(t *testing.T) {
	b := DefaultBTB()
	if _, ok := b.Predict(0x2000); ok {
		t.Error("cold BTB hit")
	}
	b.Update(0x2000, 0x3000, 1)
	tgt, ok := b.Predict(0x2000)
	if !ok || tgt != 0x3000 {
		t.Errorf("predict = %#x, %v", tgt, ok)
	}
	// Retrain with a new target.
	b.Update(0x2000, 0x4000, 2)
	tgt, _ = b.Predict(0x2000)
	if tgt != 0x4000 {
		t.Errorf("retrained target = %#x", tgt)
	}
}

func TestBTBConflictEviction(t *testing.T) {
	b := NewBTB(8, 2) // 4 sets x 2 ways
	// Three branches mapping to the same set (stride = sets*4 bytes).
	pcs := []uint64{0x1000, 0x1000 + 16, 0x1000 + 32}
	for i, pc := range pcs {
		b.Update(pc, pc+0x100, uint64(i))
	}
	hits := 0
	for _, pc := range pcs {
		if _, ok := b.Predict(pc); ok {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("2-way set should retain exactly 2 of 3 conflicting entries, got %d", hits)
	}
}

func TestRASLIFO(t *testing.T) {
	r := DefaultRAS()
	for i := uint64(1); i <= 3; i++ {
		r.Push(i * 0x100)
	}
	for want := uint64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want*0x100 {
			t.Errorf("pop = %#x, %v; want %#x", got, ok, want*0x100)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS popped")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := uint64(1); i <= 6; i++ {
		r.Push(i)
	}
	// Newest four survive: 6,5,4,3.
	for _, want := range []uint64{6, 5, 4, 3} {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Errorf("pop = %d, want %d", got, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS deeper than capacity")
	}
}

// Property: Predict never mutates state (two calls agree, and Update's
// return value matches the preceding Predict).
func TestPredictPureProperty(t *testing.T) {
	g := DefaultGShare()
	f := func(pc uint64, taken bool) bool {
		p1 := g.Predict(pc)
		p2 := g.Predict(pc)
		if p1 != p2 {
			return false
		}
		correct := g.Update(pc, taken)
		return correct == (p1 == taken)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}
