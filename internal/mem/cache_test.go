package mem

import (
	"errors"
	"testing"
)

// TestLoadSnapshotDropsCachedPage checks that LoadSnapshot clears the
// last-page cache: after restoring a snapshot without the page the last
// access touched, a Strict read of that page faults instead of
// returning the stale bytes, and a page the snapshot does hold reads
// the snapshot's bytes.
func TestLoadSnapshotDropsCachedPage(t *testing.T) {
	m := New()
	m.Strict = true
	m.Map(0x5000, PageSize)
	m.Map(0x9000, PageSize)
	if err := m.Write64(0x9000, 7); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if err := m.Write64(0x5000, 42); err != nil {
		t.Fatal(err)
	}
	delete(snap, 0x5000>>PageBits)
	m.LoadSnapshot(snap)
	var af *AccessFault
	if v, err := m.Read64(0x5000); !errors.As(err, &af) {
		t.Fatalf("read of a page the snapshot dropped = %d, %v; want an AccessFault", v, err)
	}
	if err := m.Write64(0x9000, 9); err != nil {
		t.Fatal(err)
	}
	m.LoadSnapshot(snap)
	if v, err := m.Read64(0x9000); err != nil || v != 7 {
		t.Fatalf("read after restore = %d, %v; want the snapshot's 7", v, err)
	}
}

// TestCacheInvisible checks that the last-page cache changes nothing
// the rest of the package reports: Limit still refuses the next page
// right after a cached access, and Equal and Snapshot see writes made
// through the cached page.
func TestCacheInvisible(t *testing.T) {
	m := New()
	m.Limit = 1
	for i := 0; i < 3; i++ {
		if err := m.Write64(0x1000+8*uint64(i), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var rf *ResourceFault
	if err := m.Write64(0x2000, 1); !errors.As(err, &rf) || rf.Pages != 1 {
		t.Fatalf("second page under Limit 1 = %v, want a ResourceFault at 1 page", err)
	}
	if m.PageCount() != 1 {
		t.Fatalf("PageCount = %d, want 1", m.PageCount())
	}

	// A memory written without any repeated page access.
	fresh := New()
	for i := 0; i < 3; i++ {
		if err := fresh.Write8s(0x1000+8*uint64(i), []byte{byte(i + 1), 0, 0, 0, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if ok, at := Equal(m, fresh); !ok {
		t.Fatalf("memories differ at %#x", at)
	}
	if err := m.Write8(0x1010, 9); err != nil {
		t.Fatal(err)
	}
	if ok, at := Equal(m, fresh); ok || at != 0x1010 {
		t.Fatalf("Equal = %v at %#x after a cached write, want a difference at 0x1010", ok, at)
	}
	if got := m.Snapshot()[1][0x10]; got != 9 {
		t.Fatalf("Snapshot holds %d at 0x1010, want the cached write's 9", got)
	}
}
