// Package checkpoint serializes the complete architected state of a run
// — CPU registers and PC, halt/exit/console state, the sparse memory
// image, and the VM's accounting counters — into a versioned,
// deterministic binary form.
//
// The format deliberately excludes every piece of concealed VM state:
// the translation cache, pristine shadow copies, chain links, trace
// counters, the dual-address RAS, and the accumulator file. The paper's
// co-designed VM keeps precise state only in V-ISA registers and memory
// (§2.2, §3.1); everything else is disposable and is rebuilt by
// re-translation after a restore, exactly as it was built the first
// time. DESIGN.md §11 argues why this preserves the concealed-state
// contract.
//
// Encoding is canonical: counters sort by name with zero values
// omitted, pages sort by page number, and all integers are fixed-width
// little-endian, so identical states always produce identical bytes.
// The internal/codec envelope (magic, version, CRC-64 trailer) wraps
// the payload; docs/FORMAT.md gives the byte layout. Decode enforces the
// canonical form, which makes Encode(Decode(b)) == b for every accepted
// b — the property the fuzz target pins down. Decoding never mutates
// any destination: it either returns a complete *State or a typed
// *codec.Error, never a half-restored result.
package checkpoint

import (
	"sort"

	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/codec"
	"github.com/ildp/accdbt/internal/mem"
)

// Version is the current checkpoint format version.
const Version = 1

// format is the checkpoint stream's envelope (internal/codec).
var format = codec.Format{
	Name:    "checkpoint",
	Magic:   [8]byte{'A', 'C', 'C', 'D', 'B', 'T', 'C', 'P'},
	Version: Version,
}

// State is the complete architected state of a run. It is plain data:
// building one never touches live VM structures, and applying one is
// the caller's (the VM's) responsibility.
type State struct {
	PC         uint64
	Reg        [alpha.NumRegs]uint64
	Halted     bool
	ExitStatus uint64
	InstCount  uint64

	// LockFlag / LockAddr are the LDx_L/STx_C lock state.
	LockFlag bool
	LockAddr uint64

	// MemStrict preserves the memory's fault-on-unmapped mode.
	MemStrict bool

	// Console is the PAL putchar output accumulated so far.
	Console []byte

	// Counters carries named accounting values (the VM's Stats,
	// flattened), so overhead and recovery bookkeeping reconcile across
	// kill/resume segments. Zero-valued entries are dropped by Encode.
	Counters map[string]uint64

	// Pages is the sparse memory image: every mapped page, including
	// all-zero ones — in strict mode, mapped-ness itself is architected
	// (an unmapped page faults where a zero page does not).
	Pages map[uint64][mem.PageSize]byte
}

// flag bits in the encoded flags byte.
const (
	flagHalted    = 1 << 0
	flagLock      = 1 << 1
	flagMemStrict = 1 << 2
	flagsKnown    = flagHalted | flagLock | flagMemStrict
)

// Encode serializes the state. The output is deterministic: encoding
// the same state twice yields identical bytes.
func Encode(st *State) []byte {
	w := format.NewWriter(8*(1+len(st.Reg)) + 1 + 3*8 + 4 + len(st.Console) +
		4 + 32*len(st.Counters) + 4 + (8+mem.PageSize)*len(st.Pages))
	w.U64(st.PC)
	for _, r := range st.Reg {
		w.U64(r)
	}
	var flags byte
	if st.Halted {
		flags |= flagHalted
	}
	if st.LockFlag {
		flags |= flagLock
	}
	if st.MemStrict {
		flags |= flagMemStrict
	}
	w.U8(flags)
	w.U64(st.ExitStatus)
	w.U64(st.InstCount)
	w.U64(st.LockAddr)
	w.Blob(st.Console)
	w.Counters(st.Counters)

	pns := make([]uint64, 0, len(st.Pages))
	for pn := range st.Pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	w.U32(uint32(len(pns)))
	for _, pn := range pns {
		w.U64(pn)
		page := st.Pages[pn]
		w.Raw(page[:])
	}
	return w.Seal()
}

// Decode parses a checkpoint stream. Any malformation — truncation, a
// flipped bit (caught by the checksum), a version skew, non-canonical
// ordering, or trailing garbage — returns a typed *codec.Error and a
// nil State; a non-nil State is always complete and internally
// consistent.
func Decode(b []byte) (*State, error) {
	r, err := format.Open(b)
	if err != nil {
		return nil, err
	}
	st := &State{Pages: map[uint64][mem.PageSize]byte{}}
	st.PC = r.U64()
	for i := range st.Reg {
		st.Reg[i] = r.U64()
	}
	flags := r.U8()
	if flags&^byte(flagsKnown) != 0 {
		r.Fail(codec.ErrCanonical, "unknown flag bits %#x", flags&^byte(flagsKnown))
	}
	st.Halted = flags&flagHalted != 0
	st.LockFlag = flags&flagLock != 0
	st.MemStrict = flags&flagMemStrict != 0
	st.ExitStatus = r.U64()
	st.InstCount = r.U64()
	st.LockAddr = r.U64()
	if con := r.Blob(); len(con) > 0 {
		st.Console = append([]byte(nil), con...)
	}
	st.Counters = r.Counters()

	n := r.Count(8 + mem.PageSize)
	var prev uint64
	for i := 0; i < n && r.Err() == nil; i++ {
		pn := r.U64()
		if i > 0 && pn <= prev {
			r.Fail(codec.ErrCanonical, "page %#x not sorted after %#x", pn, prev)
		}
		prev = pn
		if data := r.Take(mem.PageSize); data != nil {
			st.Pages[pn] = [mem.PageSize]byte(data)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return st, nil
}
