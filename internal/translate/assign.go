package translate

import (
	"github.com/ildp/accdbt/internal/alpha"
	"github.com/ildp/accdbt/internal/ildp"
)

// strandState tracks one strand through accumulator assignment.
type strandState struct {
	acc     int       // assigned accumulator, -1 when none (unstarted or spilled)
	home    alpha.Reg // GPR holding the strand's current value, RegZero if none
	inGPR   bool      // current value is available in `home`
	started bool
	// archCur is the architected register whose current value lives only
	// in this strand's accumulator (Basic form), RegZero when none. It
	// decides where a spill must save the value to keep precise state
	// recoverable (§2.2).
	archCur alpha.Reg
}

// assignAccumulators maps the translator's unlimited strand numbers onto
// the finite accumulator file with a linear scan (§3.3). When no
// accumulator is free, the live strand with the farthest next use is
// terminated: a copy-to-GPR saves its value (unless already saved) and a
// copy-from-GPR re-loads it just before its next use.
func (t *xlat) assignAccumulators() {
	numAcc := t.cfg.NumAcc
	n := len(t.out)

	// Per-strand instruction positions (original indices).
	positions := make([][]int, t.nextStrand)
	for i := 0; i < n; i++ {
		if s := t.strandOf[i]; s >= 0 {
			positions[s] = append(positions[s], i)
		}
	}
	posPtr := make([]int, t.nextStrand)
	states := make([]strandState, t.nextStrand)
	for i := range states {
		states[i] = strandState{acc: -1, home: alpha.RegZero, archCur: alpha.RegZero}
	}
	// inAccStrand[r] is the strand whose accumulator holds the only copy
	// of architected register r's current value, -1 when the register file
	// is current (mirrors the precise-trap recovery mapping of §2.2).
	var inAccStrand [alpha.NumRegs]int
	for i := range inAccStrand {
		inAccStrand[i] = -1
	}
	accOwner := make([]int, numAcc) // strand owning each accumulator, -1 free
	for i := range accOwner {
		accOwner[i] = -1
	}

	// nextUse returns the next original index at which strand s appears at
	// or after the current pointer, or n when exhausted.
	nextUse := func(s int) int {
		p := posPtr[s]
		if p < len(positions[s]) {
			return positions[s][p]
		}
		return n
	}

	var out2 []ildp.Inst
	var strand2 []int
	emit := func(inst ildp.Inst, s int) {
		out2 = append(out2, inst)
		strand2 = append(strand2, s)
	}

	// allocate finds a free accumulator for strand s, spilling the live
	// strand with the farthest next use if necessary. Allocation is a
	// clock scan rather than lowest-free-first so that consecutive strands
	// land on distinct accumulators even when earlier ones have already
	// ended — accumulator identity steers strands to processing elements,
	// and spreading independent strands across PEs is what the
	// accumulator-based steering is for.
	clock := 0
	allocate := func(s int) int {
		for k := 0; k < numAcc; k++ {
			a := (clock + k) % numAcc
			if accOwner[a] == -1 {
				accOwner[a] = s
				clock = (a + 1) % numAcc
				return a
			}
		}
		victim, farthest := -1, -1
		for a := 0; a < numAcc; a++ {
			owner := accOwner[a]
			if owner == s {
				continue
			}
			if nu := nextUse(owner); nu > farthest {
				farthest, victim = nu, a
			}
		}
		vs := accOwner[victim]
		st := &states[vs]
		if !st.inGPR {
			if st.archCur != alpha.RegZero && inAccStrand[st.archCur] == vs {
				// The victim's value is the current definition of an
				// architected register and exists nowhere else: spill it
				// to its architected home so a precise trap can still
				// find it after the accumulator is reassigned (§2.2). The
				// reload, if any, reads the same home — every use of the
				// value precedes any redefinition of the register, so the
				// home cannot be clobbered before the reload.
				st.home = st.archCur
				inAccStrand[st.archCur] = -1
			} else if st.home == alpha.RegZero {
				st.home = t.nextScratch()
			}
			emit(ildp.Inst{
				Kind: ildp.KindCopyToGPR, Acc: ildp.AccID(victim),
				Dest: st.home, ArchDest: alpha.RegZero,
				Frag: ildp.NoFrag, Class: ildp.ClassCopy,
			}, vs)
			st.inGPR = true
			t.res.CopyCount++
			t.res.SpillCount++
			t.cost.charge(costSpill)
		}
		st.acc = -1
		accOwner[victim] = s
		return victim
	}

	for i := 0; i < n; i++ {
		inst := t.out[i]
		s := t.strandOf[i]
		if s < 0 {
			// Direct GPR writes (save-VRA) make the register file current.
			if inst.Dest != alpha.RegZero && int(inst.Dest) < alpha.NumRegs {
				inAccStrand[inst.Dest] = -1
			}
			emit(inst, s)
			continue
		}
		t.cost.charge(costAssignInst)
		st := &states[s]
		posPtr[s]++ // consume this position before any nextUse queries

		if st.acc < 0 {
			if st.started && inst.ReadsAcc() {
				// Resumption after a premature termination: re-load the
				// saved value into a fresh accumulator first.
				a := allocate(s)
				st.acc = a
				emit(ildp.Inst{
					Kind: ildp.KindCopyFromGPR, SrcA: ildp.GPRSrc(st.home),
					WritesAcc: true, Acc: ildp.AccID(a),
					Dest: alpha.RegZero, ArchDest: alpha.RegZero,
					Frag: ildp.NoFrag, Class: ildp.ClassCopy,
				}, s)
				t.res.CopyCount++
				t.res.SpillCount++
				t.cost.charge(costSpill)
			} else {
				st.acc = allocate(s)
			}
			st.started = true
		}
		inst.Acc = ildp.AccID(st.acc)

		// Track where the strand's current value lives.
		if inst.WritesAcc {
			st.home = alpha.RegZero
			st.inGPR = false
			if inst.Dest != alpha.RegZero {
				st.home = inst.Dest
				st.inGPR = true // Modified-form destination specifier
			}
			// Update the acc-only architected-state mapping: the old value
			// is overwritten; the new one is acc-only when the instruction
			// represents an architected register but writes no GPR.
			if st.archCur != alpha.RegZero && inAccStrand[st.archCur] == s {
				inAccStrand[st.archCur] = -1
			}
			st.archCur = alpha.RegZero
			if inst.ArchDest != alpha.RegZero && int(inst.ArchDest) < alpha.NumRegs &&
				inst.Dest == alpha.RegZero {
				st.archCur = inst.ArchDest
				inAccStrand[inst.ArchDest] = s
			}
		}
		if inst.Kind == ildp.KindCopyToGPR {
			st.home = inst.Dest
			st.inGPR = true
		}
		if inst.Dest != alpha.RegZero && int(inst.Dest) < alpha.NumRegs {
			inAccStrand[inst.Dest] = -1
		}

		emit(inst, s)

		// Free the accumulator after the strand's last instruction.
		if posPtr[s] == len(positions[s]) && st.acc >= 0 {
			accOwner[st.acc] = -1
			st.acc = -1
		}
	}

	t.out = out2
	t.strandOf = strand2
}

// nextScratch hands out VM-private scratch registers for spilled
// temporaries, cycling through the scratch file.
func (t *xlat) nextScratch() alpha.Reg {
	r := t.scratchNext
	t.scratchNext++
	if t.scratchNext >= ildp.NumGPR {
		t.scratchNext = ildp.ScratchBase
	}
	return r
}

// finish computes encoded sizes, builds the precise-trap recovery table,
// and finalises the translation cost.
func (t *xlat) finish() {
	for i := range t.out {
		inst := &t.out[i]
		t.res.CodeBytes += inst.EncodedSize(t.cfg.Form)
		t.cost.charge(costInstallInst) // structure copy into the tcache (§4.2)
	}
	t.buildPEIRecovery()
	t.cost.charge(costFragmentFixed)
	t.cost.charge(int64(len(t.res.PEI)) * costPEIEntry)
	t.res.Insts = t.out
	t.res.Strands = t.strandOf
	t.res.Cost = t.cost.units
}

// buildPEIRecovery walks the final instruction sequence tracking which
// architected registers' current values live only in an accumulator, and
// snapshots that mapping at every PEI-table point (§2.2). In the Modified
// form every producing instruction writes its destination GPR, so the
// mapping is always empty.
func (t *xlat) buildPEIRecovery() {
	inAcc := map[alpha.Reg]ildp.AccID{}
	for i := range t.out {
		inst := &t.out[i]
		if inst.IsPEI() {
			var pairs []RegAcc
			for r, a := range inAcc {
				pairs = append(pairs, RegAcc{Reg: r, Acc: a})
			}
			t.res.PEIRecover = append(t.res.PEIRecover, pairs)
		}
		// Apply the instruction's effects to the mapping.
		if inst.WritesAcc && inst.Acc != ildp.NoAcc {
			// The accumulator's previous content is gone.
			for r, a := range inAcc {
				if a == inst.Acc {
					delete(inAcc, r)
				}
			}
			if inst.ArchDest != alpha.RegZero && int(inst.ArchDest) < alpha.NumRegs &&
				inst.Dest == alpha.RegZero {
				// Basic form: the register's current value now lives only
				// in the accumulator.
				inAcc[inst.ArchDest] = inst.Acc
			}
		}
		// Any direct GPR write makes that register architecturally current
		// in the register file.
		if inst.Dest != alpha.RegZero && int(inst.Dest) < alpha.NumRegs {
			delete(inAcc, inst.Dest)
		}
	}
}
