// Package mem provides the sparse, little-endian, 64-bit byte-addressable
// memory used by both the Alpha interpreter and the translated-code
// executor. Pages are allocated lazily. In Strict mode, accesses to
// unmapped pages raise an AccessFault, which the VM turns into a precise
// trap; in relaxed mode pages are materialised on demand (convenient for
// tests).
package mem

import (
	"encoding/binary"
	"fmt"
)

// Page geometry.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	pageMask = PageSize - 1
)

// AccessFault reports an access to unmapped memory (Strict mode only).
type AccessFault struct {
	Addr  uint64
	Write bool
}

func (f *AccessFault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("memory access fault: %s of unmapped address %#x", kind, f.Addr)
}

// ResourceFault reports an allocation that would exceed the memory's
// page Limit: a governed guest tried to grow its resident set past its
// cap. The VM turns it into a precise trap at the faulting V-PC, so a
// memory-bombing guest dies with a typed error at a replayable point
// instead of taking the host process down.
type ResourceFault struct {
	Addr  uint64
	Write bool
	Pages int // pages resident when the allocation was refused
	Limit int // the cap that was hit
}

func (f *ResourceFault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("memory resource fault: %s at %#x would exceed page limit (%d/%d pages)",
		kind, f.Addr, f.Pages, f.Limit)
}

// AlignmentFault reports a misaligned access.
type AlignmentFault struct {
	Addr uint64
	Size int
}

func (f *AlignmentFault) Error() string {
	return fmt.Sprintf("alignment fault: %d-byte access at %#x", f.Size, f.Addr)
}

// Memory is a sparse paged memory. The zero value is a usable relaxed-mode
// memory.
type Memory struct {
	pages map[uint64]*[PageSize]byte
	// Two one-page slots cache page lookups: data holds the page of the
	// most recent data access, fetch that of the most recent Fetch32.
	// Instruction fetch and data accesses alternate between text and
	// data pages, so one shared slot would miss on nearly every access.
	// Pages are never unmapped except by LoadSnapshot, which clears both
	// slots, so a cached page is always the mapped one. Each key is its
	// page's base address with one low bit set, bit 3 for data
	// (dataKeyOf) and bit 2 for fetch (fetchKeyOf), or zero when the
	// slot is empty; no address's key is zero.
	dataKey  uint64
	data     *[PageSize]byte
	fetchKey uint64
	fetch    *[PageSize]byte
	// Strict, when true, makes access to unmapped pages fault rather than
	// allocate.
	Strict bool
	// Limit, when positive, caps the number of resident pages: an access
	// that would allocate page Limit+1 raises a ResourceFault instead.
	// Zero means ungoverned. LoadSnapshot is exempt — restoring a
	// checkpoint reinstates exactly the pages it recorded.
	Limit int
}

// New returns an empty relaxed-mode memory.
func New() *Memory { return &Memory{pages: map[uint64]*[PageSize]byte{}} }

// page returns the page holding addr through the data slot.
func (m *Memory) page(addr uint64, write bool, allocate bool) (*[PageSize]byte, error) {
	if dataKeyOf(addr&^7) == m.dataKey {
		return m.data, nil
	}
	p, err := m.lookup(addr, write, allocate)
	if err != nil {
		return nil, err
	}
	m.dataKey, m.data = dataKeyOf(addr&^7), p
	return p, nil
}

// dataKeyOf is the data-slot key of addr: its page base and its low
// three bits, with bit 3 set. An 8-byte-aligned address has the key of
// its page's base, and a misaligned one matches no stored key, so one
// compare checks both page and alignment.
func dataKeyOf(addr uint64) uint64 { return addr&^(pageMask^7) | 8 }

// Hit64 is Read64's hit path: the quadword at addr and true when addr is
// 8-byte aligned and on the page in the data slot, and false otherwise,
// when the caller falls back to Read64. It is small enough to inline.
func (m *Memory) Hit64(addr uint64) (uint64, bool) {
	if dataKeyOf(addr) != m.dataKey {
		return 0, false
	}
	return binary.LittleEndian.Uint64(m.data[addr&pageMask:]), true
}

// PutHit64 is Write64's hit path: it stores v at addr and returns true
// when addr is 8-byte aligned and on the page in the data slot, and
// returns false otherwise, having stored nothing, when the caller falls
// back to Write64. It is small enough to inline.
func (m *Memory) PutHit64(addr, v uint64) bool {
	if dataKeyOf(addr) != m.dataKey {
		return false
	}
	binary.LittleEndian.PutUint64(m.data[addr&pageMask:], v)
	return true
}

// lookup finds the page holding addr in the page map, allocating it
// when the mode and the Limit allow. It leaves both slots untouched.
func (m *Memory) lookup(addr uint64, write bool, allocate bool) (*[PageSize]byte, error) {
	pn := addr >> PageBits
	if m.pages == nil {
		m.pages = map[uint64]*[PageSize]byte{}
	}
	p, ok := m.pages[pn]
	if !ok {
		if m.Strict && !allocate {
			return nil, &AccessFault{Addr: addr, Write: write}
		}
		if m.Limit > 0 && len(m.pages) >= m.Limit {
			return nil, &ResourceFault{Addr: addr, Write: write, Pages: len(m.pages), Limit: m.Limit}
		}
		p = new([PageSize]byte)
		m.pages[pn] = p
	}
	return p, nil
}

// Map ensures [addr, addr+size) is mapped (zero-filled), regardless of
// Strict mode. It fails with a ResourceFault when mapping would exceed
// the page Limit; pages mapped before the fault stay mapped.
func (m *Memory) Map(addr, size uint64) error {
	if size == 0 {
		return nil
	}
	for pn := addr >> PageBits; pn <= (addr+size-1)>>PageBits; pn++ {
		if _, err := m.page(pn<<PageBits, true, true); err != nil {
			return err
		}
	}
	return nil
}

// Mapped reports whether addr falls on a mapped page.
func (m *Memory) Mapped(addr uint64) bool {
	_, ok := m.pages[addr>>PageBits]
	return ok
}

// PageCount returns the number of mapped pages.
func (m *Memory) PageCount() int { return len(m.pages) }

// Equal reports whether two memories hold identical contents. A page
// mapped in one memory but not the other compares equal when it is
// all-zero (lazy allocation means the set of mapped pages depends on
// the access pattern, not just on the stored data), and returns the
// first differing address otherwise.
func Equal(a, b *Memory) (bool, uint64) {
	zero := [PageSize]byte{}
	pageEq := func(pa, pb *[PageSize]byte) (bool, uint64) {
		if pa == nil {
			pa = &zero
		}
		if pb == nil {
			pb = &zero
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return false, uint64(i)
			}
		}
		return true, 0
	}
	for pn, pa := range a.pages {
		if ok, off := pageEq(pa, b.pages[pn]); !ok {
			return false, pn<<PageBits + off
		}
	}
	for pn, pb := range b.pages {
		if _, seen := a.pages[pn]; seen {
			continue
		}
		if ok, off := pageEq(nil, pb); !ok {
			return false, pn<<PageBits + off
		}
	}
	return true, 0
}

// Snapshot returns a deep copy of every mapped page, keyed by page
// number. Together with Strict it is the memory's complete state:
// LoadSnapshot on a fresh Memory reproduces the contents bit for bit.
func (m *Memory) Snapshot() map[uint64][PageSize]byte {
	out := make(map[uint64][PageSize]byte, len(m.pages))
	for pn, p := range m.pages {
		out[pn] = *p
	}
	return out
}

// LoadSnapshot replaces the memory's contents with the snapshot: every
// page in the snapshot becomes mapped with the given bytes, and every
// previously mapped page not in the snapshot is unmapped. The snapshot
// is copied, so later writes to the memory do not alias it.
func (m *Memory) LoadSnapshot(pages map[uint64][PageSize]byte) {
	m.dataKey, m.data, m.fetchKey, m.fetch = 0, nil, 0, nil
	m.pages = make(map[uint64]*[PageSize]byte, len(pages))
	for pn, data := range pages {
		p := data
		m.pages[pn] = &p
	}
}

// Read8s copies n bytes starting at addr into a fresh slice.
func (m *Memory) Read8s(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		b, err := m.Read8(addr + uint64(i))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// Write8s stores b at addr.
func (m *Memory) Write8s(addr uint64, b []byte) error {
	for i, v := range b {
		if err := m.Write8(addr+uint64(i), v); err != nil {
			return err
		}
	}
	return nil
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint64) (byte, error) {
	p, err := m.page(addr, false, false)
	if err != nil {
		return 0, err
	}
	return p[addr&pageMask], nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint64, v byte) error {
	p, err := m.page(addr, true, false)
	if err != nil {
		return err
	}
	p[addr&pageMask] = v
	return nil
}

// read reads a naturally-aligned little-endian value of the given size.
func (m *Memory) read(addr uint64, size int) (uint64, error) {
	if addr&uint64(size-1) != 0 {
		return 0, &AlignmentFault{Addr: addr, Size: size}
	}
	p, err := m.page(addr, false, false)
	if err != nil {
		return 0, err
	}
	b := p[addr&pageMask:]
	switch size {
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	}
	return binary.LittleEndian.Uint64(b), nil
}

// write stores a naturally-aligned little-endian value of the given size.
func (m *Memory) write(addr uint64, size int, v uint64) error {
	if addr&uint64(size-1) != 0 {
		return &AlignmentFault{Addr: addr, Size: size}
	}
	p, err := m.page(addr, true, false)
	if err != nil {
		return err
	}
	b := p[addr&pageMask:]
	switch size {
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
	return nil
}

// Read16 loads an aligned little-endian 16-bit value.
func (m *Memory) Read16(addr uint64) (uint16, error) {
	v, err := m.read(addr, 2)
	return uint16(v), err
}

// Read32 loads an aligned little-endian 32-bit value.
func (m *Memory) Read32(addr uint64) (uint32, error) {
	v, err := m.read(addr, 4)
	return uint32(v), err
}

// Read64 loads an aligned little-endian 64-bit value.
func (m *Memory) Read64(addr uint64) (uint64, error) {
	return m.read(addr, 8)
}

// fetchKeyOf is the fetch-slot key of addr: its page base and its low
// two bits, with bit 2 set. A 4-byte-aligned address has the key of its
// page's base, and a misaligned one matches no stored key, so one
// compare checks both page and alignment.
func fetchKeyOf(addr uint64) uint64 { return addr&^(pageMask^3) | 4 }

// FetchHit is Fetch32's hit path: the word at addr and true when addr is
// 4-byte aligned and on the page in the fetch slot, and false otherwise,
// when the caller falls back to Fetch32. It is small enough to inline.
func (m *Memory) FetchHit(addr uint64) (uint32, bool) {
	if fetchKeyOf(addr) != m.fetchKey {
		return 0, false
	}
	return binary.LittleEndian.Uint32(m.fetch[addr&pageMask:]), true
}

// Fetch32 is Read32 for instruction fetch: the same value, faults and
// effects (alignment, Strict, Limit, relaxed allocation), but its page
// is cached in the fetch slot, so fetches and data accesses on
// different pages do not evict each other.
func (m *Memory) Fetch32(addr uint64) (uint32, error) {
	if w, ok := m.FetchHit(addr); ok {
		return w, nil
	}
	if addr&3 != 0 {
		return 0, &AlignmentFault{Addr: addr, Size: 4}
	}
	p, err := m.lookup(addr, false, false)
	if err != nil {
		return 0, err
	}
	m.fetchKey, m.fetch = fetchKeyOf(addr), p
	return binary.LittleEndian.Uint32(p[addr&pageMask:]), nil
}

// Write16 stores an aligned little-endian 16-bit value.
func (m *Memory) Write16(addr uint64, v uint16) error { return m.write(addr, 2, uint64(v)) }

// Write32 stores an aligned little-endian 32-bit value.
func (m *Memory) Write32(addr uint64, v uint32) error { return m.write(addr, 4, uint64(v)) }

// Write64 stores an aligned little-endian 64-bit value.
func (m *Memory) Write64(addr uint64, v uint64) error { return m.write(addr, 8, v) }
