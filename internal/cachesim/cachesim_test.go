package cachesim

import (
	"testing"
	"unsafe"
)

func TestHitAfterMiss(t *testing.T) {
	memory := &Memory{Latency: 72, Burst: 4}
	c := New("D$", 32<<10, 64, 4, 2, LRU, memory)
	lat := c.Access(0x1000, false)
	if lat != 2+72+4 {
		t.Errorf("cold miss latency = %d, want 78", lat)
	}
	lat = c.Access(0x1000, false)
	if lat != 2 {
		t.Errorf("hit latency = %d, want 2", lat)
	}
	// Same line, different word: still a hit.
	if lat = c.Access(0x1038, false); lat != 2 {
		t.Errorf("same-line hit latency = %d", lat)
	}
	if c.Misses != 1 || c.Accesses != 3 {
		t.Errorf("misses=%d accesses=%d", c.Misses, c.Accesses)
	}
}

func TestLRUEviction(t *testing.T) {
	memory := &Memory{Latency: 10}
	// 2 sets x 2 ways x 64B = 256B cache.
	c := New("tiny", 256, 64, 2, 1, LRU, memory)
	// Three blocks in the same set: stride = sets*64 = 128.
	a, b, d := uint64(0), uint64(128*2), uint64(128*4)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // refresh a
	c.Access(d, false) // evicts b
	if lat := c.Access(a, false); lat != 1 {
		t.Error("a was evicted, want LRU to keep it")
	}
	if lat := c.Access(b, false); lat == 1 {
		t.Error("b should have been evicted")
	}
}

func TestTwoLevelHierarchy(t *testing.T) {
	h := NewHierarchy(DefaultOptions())
	// First access: L1 miss + L2 miss + memory.
	lat := h.D[0].Access(0x5000, false)
	if lat != 2+8+72+4 {
		t.Errorf("L1+L2+mem = %d, want 86", lat)
	}
	// L1 hit.
	if lat = h.D[0].Access(0x5000, false); lat != 2 {
		t.Errorf("L1 hit = %d", lat)
	}
	// Evict from tiny range is hard with 32KB; instead check L2 hit path:
	// a different line in the same L2 line (128B) but different L1 line
	// (64B): L1 miss, L2 hit.
	if lat = h.D[0].Access(0x5040, false); lat != 2+8 {
		t.Errorf("L1 miss L2 hit = %d, want 10", lat)
	}
}

func TestReplicatedDCaches(t *testing.T) {
	h := NewHierarchy(Options{DSizeBytes: 8 << 10, DWays: 2, Replicas: 8})
	if len(h.D) != 8 {
		t.Fatalf("replicas = %d", len(h.D))
	}
	// Each replica misses independently.
	h.D[0].Access(0x100, false)
	if lat := h.D[1].Access(0x100, false); lat == 2 {
		t.Error("replica 1 hit without filling")
	}
}

func TestRandomReplacementDeterministic(t *testing.T) {
	mk := func() *Cache {
		return New("r", 256, 64, 2, 1, Random, &Memory{Latency: 5})
	}
	seq := []uint64{0, 256, 512, 0, 768, 256, 1024, 0}
	run := func() (uint64, int64) {
		c := mk()
		var total int64
		for _, a := range seq {
			total += c.Access(a, false)
		}
		return c.Misses, total
	}
	m1, t1 := run()
	m2, t2 := run()
	if m1 != m2 || t1 != t2 {
		t.Error("random replacement is not deterministic across runs")
	}
}

func TestICacheDirectMapped(t *testing.T) {
	h := NewHierarchy(DefaultOptions())
	// Direct-mapped 32KB, 128B lines: 256 sets. Two addresses 32KB apart
	// conflict.
	h.I.Access(0x0, false)
	h.I.Access(32<<10, false)
	if lat := h.I.Access(0x0, false); lat == 0 {
		t.Error("direct-mapped conflict should have evicted")
	}
}

// TestCacheFillsWholeLines: a Cache is a whole number of 64-byte cache
// lines, so the allocator's size class keeps caches on lines of their
// own, and the Lookup/Access split between two CPUs shares none.
func TestCacheFillsWholeLines(t *testing.T) {
	if s := unsafe.Sizeof(Cache{}); s%64 != 0 {
		t.Errorf("unsafe.Sizeof(Cache{}) = %d, want a multiple of 64", s)
	}
}

// TestLookupThenNext splits an access the way a timing model's fetch
// stage and core do: Lookup on the level, then the next level on a
// miss. Latencies, counters and the next level's state must match
// Access.
func TestLookupThenNext(t *testing.T) {
	whole, split := NewHierarchy(Options{}), NewHierarchy(Options{})
	x := uint64(1)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := x % (4 << 20)
		want := whole.I.Access(addr, false)
		got := split.I.Latency()
		if !split.I.Lookup(addr) {
			got += split.I.Next().Access(addr, false)
		}
		if got != want {
			t.Fatalf("access %d to %#x: split latency %d, Access %d", i, addr, got, want)
		}
	}
	if whole.I.Accesses != split.I.Accesses || whole.I.Misses != split.I.Misses ||
		whole.L2.Misses != split.L2.Misses || whole.Mem.Accesses != split.Mem.Accesses {
		t.Errorf("split counters differ: I %d/%d misses, L2 %d/%d misses", split.I.Misses, whole.I.Misses, split.L2.Misses, whole.L2.Misses)
	}
}
