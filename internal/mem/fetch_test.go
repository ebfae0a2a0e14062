package mem

import (
	"errors"
	"reflect"
	"testing"
)

// TestFetch32FaultParity checks that Fetch32 fails exactly as Read32
// does, with the same error type and value and the same effect on the
// page count, for an unmapped Strict page, a misaligned address and a
// relaxed-mode Limit overflow; and that a relaxed fetch of a fresh page
// allocates it as a read would.
func TestFetch32FaultParity(t *testing.T) {
	cases := []struct {
		name  string
		setup func(m *Memory)
		addr  uint64
		want  any // pointer to the expected error type
	}{
		{"strict-unmapped", func(m *Memory) { m.Strict = true; m.Map(0x1000, PageSize) }, 0x8000, new(*AccessFault)},
		{"misaligned", func(m *Memory) { m.Map(0x1000, PageSize) }, 0x1002, new(*AlignmentFault)},
		{"misaligned-cached", func(m *Memory) { m.Map(0x1000, PageSize); m.Fetch32(0x1000) }, 0x1006, new(*AlignmentFault)},
		{"limit", func(m *Memory) { m.Limit = 1; m.Write64(0x1000, 1) }, 0x5000, new(*ResourceFault)},
		{"relaxed-allocates", func(m *Memory) {}, 0x7000, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rm, fm := New(), New()
			tc.setup(rm)
			tc.setup(fm)
			rv, rerr := rm.Read32(tc.addr)
			fv, ferr := fm.Fetch32(tc.addr)
			if !reflect.DeepEqual(rerr, ferr) || rv != fv {
				t.Fatalf("Fetch32 = %d, %#v; Read32 = %d, %#v", fv, ferr, rv, rerr)
			}
			if tc.want == nil {
				if ferr != nil {
					t.Fatalf("Fetch32: %v", ferr)
				}
			} else if !errors.As(ferr, tc.want) {
				t.Fatalf("Fetch32 error %T, want %T", ferr, reflect.ValueOf(tc.want).Elem().Interface())
			}
			if rm.PageCount() != fm.PageCount() {
				t.Fatalf("pages after Fetch32 %d, after Read32 %d", fm.PageCount(), rm.PageCount())
			}
		})
	}
}

// TestFetchSlotParity checks the fetch slot's one-compare key: FetchHit
// never serves a misaligned address, a page LoadSnapshot dropped or
// replaced, or anything from the zero Memory, and each of those fetches
// then fails or reads exactly as Read32 does.
func TestFetchSlotParity(t *testing.T) {
	same := func(t *testing.T, m *Memory, addr uint64) {
		t.Helper()
		if w, ok := m.FetchHit(addr); ok {
			t.Fatalf("FetchHit(%#x) = %#x, true; want a miss", addr, w)
		}
		fv, ferr := m.Fetch32(addr)
		rv, rerr := m.Read32(addr)
		if !reflect.DeepEqual(ferr, rerr) || fv != rv {
			t.Fatalf("Fetch32(%#x) = %#x, %#v; Read32 = %#x, %#v", addr, fv, ferr, rv, rerr)
		}
	}

	t.Run("misaligned-after-hit", func(t *testing.T) {
		m := New()
		m.Strict = true
		m.Map(0x3000, PageSize)
		if _, err := m.Fetch32(0x3000); err != nil {
			t.Fatal(err)
		}
		for _, addr := range []uint64{0x3001, 0x3002, 0x3003, 0x3ffd, 0x3fff} {
			if _, ok := m.FetchHit(0x3004); !ok {
				t.Fatal("aligned fetch on the slot's page missed")
			}
			same(t, m, addr)
			var af *AlignmentFault
			if _, err := m.Fetch32(addr); !errors.As(err, &af) {
				t.Fatalf("Fetch32(%#x) = %v, want an AlignmentFault", addr, err)
			}
		}
	})

	t.Run("load-snapshot", func(t *testing.T) {
		m := New()
		m.Strict = true
		m.Map(0x5000, PageSize)
		m.Map(0x6000, PageSize)
		if err := m.Write32(0x6000, 6); err != nil {
			t.Fatal(err)
		}
		snap := m.Snapshot()
		delete(snap, 0x5000>>PageBits)
		for _, pc := range []uint64{0x5000, 0x6000} {
			if err := m.Write32(pc, 99); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Fetch32(pc); err != nil {
				t.Fatal(err)
			}
			m.LoadSnapshot(snap)
			same(t, m, pc) // 0x5000 faults, 0x6000 reads the snapshot's 6
		}
		if v, _ := m.Fetch32(0x6000); v != 6 {
			t.Fatalf("fetch after restore = %d, want the snapshot's 6", v)
		}
	})

	t.Run("strict-unmapped", func(t *testing.T) {
		m := New()
		m.Strict = true
		m.Map(0x7000, PageSize)
		if _, err := m.Fetch32(0x7ffc); err != nil {
			t.Fatal(err)
		}
		same(t, m, 0x8000) // the next page, unmapped
		same(t, m, 0x6ffc) // the previous one
		var af *AccessFault
		if _, err := m.Fetch32(0x8000); !errors.As(err, &af) {
			t.Fatalf("Fetch32 = %v, want an AccessFault", err)
		}
		if m.PageCount() != 1 {
			t.Fatalf("%d pages mapped, want 1", m.PageCount())
		}
	})

	t.Run("zero-memory", func(t *testing.T) {
		for _, addr := range []uint64{0, 4} {
			var m Memory
			same(t, &m, addr)
		}
	})
}

// TestDataSlotParity checks the data slot's one-compare key: a caller
// that tries Hit64 or PutHit64 first and falls back to Read64 or Write64
// on a miss reads, writes, faults and allocates exactly as one that
// calls Read64 and Write64 alone. Each case runs the same accesses on
// two memories, one through each caller, and names the accesses the
// slot must serve and those it must miss: misaligned quadwords, the
// first quadword past the slot's page, the zero Memory, pages
// LoadSnapshot dropped or replaced, a Strict unmapped neighbour, and a
// Limit at capacity, where a hit must never allocate.
func TestDataSlotParity(t *testing.T) {
	type pair struct{ hm, rm *Memory }
	both := func(p pair, do func(m *Memory)) { do(p.hm); do(p.rm) }
	// same stores v at addr, then loads it back, through each caller,
	// and compares the two memories.
	same := func(t *testing.T, p pair, addr, v uint64, wantHit bool) {
		t.Helper()
		if _, hit := p.hm.Hit64(addr); hit != wantHit {
			t.Fatalf("Hit64(%#x) hit = %v, want %v", addr, hit, wantHit)
		}
		var herr error
		if hit := p.hm.PutHit64(addr, v); hit != wantHit {
			t.Fatalf("PutHit64(%#x) hit = %v, want %v", addr, hit, wantHit)
		} else if !hit {
			herr = p.hm.Write64(addr, v)
		}
		if rerr := p.rm.Write64(addr, v); !reflect.DeepEqual(herr, rerr) {
			t.Fatalf("store at %#x: %#v through the slot, %#v through Write64", addr, herr, rerr)
		}
		hv, hit := p.hm.Hit64(addr)
		var herr2 error
		if !hit {
			hv, herr2 = p.hm.Read64(addr)
		}
		rv, rerr := p.rm.Read64(addr)
		if hv != rv || !reflect.DeepEqual(herr2, rerr) {
			t.Fatalf("load at %#x: %#x, %#v through the slot; %#x, %#v through Read64", addr, hv, herr2, rv, rerr)
		}
		if p.hm.PageCount() != p.rm.PageCount() {
			t.Fatalf("after %#x: %d pages through the slot, %d through Read64/Write64",
				addr, p.hm.PageCount(), p.rm.PageCount())
		}
		if eq, at := Equal(p.hm, p.rm); !eq {
			t.Fatalf("after %#x: contents differ at %#x", addr, at)
		}
	}
	strict := func() pair {
		p := pair{New(), New()}
		both(p, func(m *Memory) { m.Strict = true })
		return p
	}
	const v = 0x0807060504030201

	t.Run("misaligned", func(t *testing.T) {
		p := strict()
		both(p, func(m *Memory) { m.Map(0x3000, PageSize) })
		same(t, p, 0x3000, v, true) // Map left its page in the slot
		for k := uint64(1); k < 8; k++ {
			same(t, p, 0x3008, v, true)
			same(t, p, 0x3008+k, v+k, false) // an AlignmentFault
		}
	})

	t.Run("page-boundary", func(t *testing.T) {
		p := strict()
		both(p, func(m *Memory) { m.Map(0x3000, 2*PageSize) })
		same(t, p, 0x3ff8, v, false)
		same(t, p, 0x3ff8, v+1, true)  // the page's last quadword
		same(t, p, 0x4000, v+2, false) // the next page's first
		same(t, p, 0x4000, v+3, true)
		same(t, p, 0x3ff8, v+4, false)
	})

	t.Run("zero-memory", func(t *testing.T) {
		for _, addr := range []uint64{0, 8} {
			same(t, pair{new(Memory), new(Memory)}, addr, v, false)
		}
	})

	t.Run("load-snapshot", func(t *testing.T) {
		p := strict()
		both(p, func(m *Memory) {
			m.Map(0x5000, PageSize)
			m.Map(0x6000, PageSize)
			m.Write64(0x6000, 6)
		})
		snap := p.rm.Snapshot()
		delete(snap, 0x5000>>PageBits)
		for _, addr := range []uint64{0x5000, 0x6000} {
			same(t, p, addr, 99, false)
			same(t, p, addr, 99, true)
			both(p, func(m *Memory) { m.LoadSnapshot(snap) })
			same(t, p, addr, 99, false) // 0x5000 faults, 0x6000 is the snapshot's
		}
	})

	t.Run("strict-unmapped", func(t *testing.T) {
		p := strict()
		both(p, func(m *Memory) { m.Map(0x7000, PageSize) })
		same(t, p, 0x7ff8, v, true)
		same(t, p, 0x8000, v, false) // the next page, unmapped
		same(t, p, 0x7ff8, v, true)
		same(t, p, 0x6ff8, v, false) // the previous one
	})

	t.Run("limit", func(t *testing.T) {
		p := pair{New(), New()}
		both(p, func(m *Memory) { m.Limit = 1 })
		same(t, p, 0x1000, v, false) // allocates the one page
		same(t, p, 0x1008, v, true)
		same(t, p, 0x5000, v, false) // a ResourceFault
		same(t, p, 0x1ff8, v, true)
		if n := p.hm.PageCount(); n != 1 {
			t.Fatalf("%d pages resident, want the Limit's 1", n)
		}
	})
}

// TestFetch32SeesWrites checks that a store to the page in the fetch
// slot is visible to the next fetch: the slot caches the page, not its
// bytes.
func TestFetch32SeesWrites(t *testing.T) {
	m := New()
	m.Strict = true
	m.Map(0x4000, PageSize)
	m.Map(0x9000, PageSize)
	if err := m.Write32(0x4010, 0x11111111); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Fetch32(0x4010); err != nil || v != 0x11111111 {
		t.Fatalf("first fetch = %#x, %v", v, err)
	}
	// A data access elsewhere, then a store to the fetched page.
	if _, err := m.Read64(0x9000); err != nil {
		t.Fatal(err)
	}
	if err := m.Write32(0x4010, 0x22222222); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Fetch32(0x4010); err != nil || v != 0x22222222 {
		t.Fatalf("fetch after store = %#x, %v; want 0x22222222", v, err)
	}
}

// TestLoadSnapshotDropsFetchPage checks that LoadSnapshot clears the
// fetch slot: a Strict fetch from a page the snapshot lacks faults
// instead of returning stale bytes, and a page it holds fetches the
// snapshot's bytes.
func TestLoadSnapshotDropsFetchPage(t *testing.T) {
	m := New()
	m.Strict = true
	m.Map(0x5000, PageSize)
	m.Map(0x9000, PageSize)
	if err := m.Write32(0x9000, 7); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if err := m.Write32(0x5000, 42); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Fetch32(0x5000); err != nil || v != 42 {
		t.Fatalf("fetch = %d, %v", v, err)
	}
	delete(snap, 0x5000>>PageBits)
	m.LoadSnapshot(snap)
	var af *AccessFault
	if v, err := m.Fetch32(0x5000); !errors.As(err, &af) {
		t.Fatalf("fetch of a page the snapshot dropped = %d, %v; want an AccessFault", v, err)
	}

	if err := m.Write32(0x9000, 9); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Fetch32(0x9000); err != nil || v != 9 {
		t.Fatalf("fetch = %d, %v", v, err)
	}
	m.LoadSnapshot(snap)
	if v, err := m.Fetch32(0x9000); err != nil || v != 7 {
		t.Fatalf("fetch after restore = %d, %v; want the snapshot's 7", v, err)
	}
}

// TestLittleEndianPageEnd round-trips 2-, 4- and 8-byte values at the
// last aligned offset of a page and checks their byte order.
func TestLittleEndianPageEnd(t *testing.T) {
	const page = 0x3000
	var v uint64 = 0x0807060504030201
	for _, size := range []int{2, 4, 8} {
		m := New()
		addr := uint64(page + PageSize - size)
		var got uint64
		var err error
		switch size {
		case 2:
			if err = m.Write16(addr, uint16(v)); err == nil {
				var x uint16
				x, err = m.Read16(addr)
				got = uint64(x)
			}
		case 4:
			if err = m.Write32(addr, uint32(v)); err == nil {
				var x uint32
				x, err = m.Read32(addr)
				got = uint64(x)
				if f, ferr := m.Fetch32(addr); ferr != nil || f != x {
					t.Fatalf("Fetch32 = %#x, %v; Read32 = %#x", f, ferr, x)
				}
			}
		case 8:
			if err = m.Write64(addr, v); err == nil {
				got, err = m.Read64(addr)
			}
		}
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		want := v
		if size < 8 {
			want &= 1<<(8*size) - 1
		}
		if got != want {
			t.Fatalf("size %d: read back %#x", size, got)
		}
		b, err := m.Read8s(addr, size)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range b {
			if x != byte(i+1) {
				t.Fatalf("size %d: byte %d = %#x, want %#x (little-endian)", size, i, x, i+1)
			}
		}
		if m.PageCount() != 1 {
			t.Fatalf("size %d: access touched %d pages, want 1", size, m.PageCount())
		}
	}
}
