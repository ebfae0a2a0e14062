package vm

import "github.com/ildp/accdbt/internal/ildp"

// rasEntry is one dual-address return address stack pair: the V-ISA return
// address and the translated fragment holding the return point (§3.2).
type rasEntry struct {
	v    uint64
	frag int32
}

// dualRAS is the specialised hardware return address stack of the
// co-designed VM. It is architecturally visible: the translated return
// instruction jumps to the popped I-ISA address when the popped V-ISA
// address matches its register value, and falls through to dispatch
// otherwise. The stack is circular; overflow silently overwrites the
// oldest entry, as hardware RAS implementations do.
type dualRAS struct {
	buf []rasEntry
	top int // next push position
	n   int // live entries
}

func newDualRAS(size int) dualRAS {
	return dualRAS{buf: make([]rasEntry, size)}
}

func (r *dualRAS) push(v uint64, frag int32) {
	r.buf[r.top] = rasEntry{v: v, frag: frag}
	r.top = (r.top + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// pop removes and returns the newest entry; ok is false when empty.
func (r *dualRAS) pop() (rasEntry, bool) {
	if r.n == 0 {
		return rasEntry{frag: ildp.NoFrag}, false
	}
	r.top = (r.top - 1 + len(r.buf)) % len(r.buf)
	r.n--
	return r.buf[r.top], true
}
