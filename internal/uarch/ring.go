package uarch

// bookRing books per-cycle resource usage (the superscalar's function
// units), where requests arrive out of cycle order. Slots are tagged
// with the cycle they describe, so reuse after wrap-around never sees
// stale counts.
type bookRing struct {
	cycle []int64
	count []uint16
}

const bookRingLen = 1 << 15

func newBookRing() bookRing {
	return bookRing{cycle: make([]int64, bookRingLen), count: make([]uint16, bookRingLen)}
}

// reserve returns the earliest cycle at or after want with spare capacity
// and books one unit of it.
func (b *bookRing) reserve(want int64, limit uint16) int64 {
	for {
		i := uint64(want) % bookRingLen
		if b.cycle[i] != want {
			b.cycle[i] = want
			b.count[i] = 0
		}
		if b.count[i] < limit {
			b.count[i]++
			return want
		}
		want++
	}
}

// retireBW books in-order retirement bandwidth. Each record retires no
// earlier than the one before it, so retire cycles never decrease and
// the only cycle that can still have a free slot is the last one: the
// booking is that cycle and its count, not a ring.
type retireBW struct {
	last  int64 // the latest retire cycle
	count int   // records retired in it
}

// retire returns the retire cycle of a record whose result is ready at
// done, with at most width records retiring per cycle, and books it.
func (r *retireBW) retire(done int64, width int) int64 {
	// Written as selects rather than branches: which case applies
	// depends on the timing, so a branch would often mispredict.
	last, count := r.last, r.count+1
	if r.count >= width {
		last, count = r.last+1, 1
	}
	if done > r.last {
		last, count = done, 1
	}
	r.last, r.count = last, count
	return last
}
