package faultinject

import (
	"fmt"
	"strings"
)

// This file is the seeded fault schedule both chaos planes draw from:
// the VM plane (Injector, below in this package) and the disk plane
// (iofs.Faulty). Each plane declares its own kind type and name table;
// the stream, the enabled set, the MaxFaults cap and the counters exist
// once, here.

// maxKinds bounds a kind table's length, the no-fault kind included.
const maxKinds = 8

// KindType is the constraint on a plane's fault-kind type: a small
// integer whose zero value is the no-fault decision and whose String
// names it.
type KindType interface {
	~uint8
	fmt.Stringer
}

// Table names one plane's fault kinds: names[k] is kind k's name, and
// kind 0 ("none") is the no-fault decision, never injectable.
type Table[K ~uint8] struct {
	plane string // error prefix, e.g. "iofs"
	names []string
}

// NewTable declares a plane's kinds by name, kind 0 first.
func NewTable[K ~uint8](plane string, names ...string) *Table[K] {
	if len(names) > maxKinds {
		panic(fmt.Sprintf("faultinject: %s declares %d kinds, limit %d", plane, len(names), maxKinds))
	}
	return &Table[K]{plane: plane, names: names}
}

// Name returns k's name, or "kind(N)" when k is out of range.
func (t *Table[K]) Name(k K) string {
	if int(k) < len(t.names) {
		return t.names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ByName parses one injectable kind's name as printed by Name.
func (t *Table[K]) ByName(name string) (K, error) {
	for k := 1; k < len(t.names); k++ {
		if t.names[k] == name {
			return K(k), nil
		}
	}
	return 0, fmt.Errorf("%s: unknown fault kind %q", t.plane, name)
}

// All returns every injectable kind.
func (t *Table[K]) All() []K {
	out := make([]K, 0, len(t.names)-1)
	for k := 1; k < len(t.names); k++ {
		out = append(out, K(k))
	}
	return out
}

// Parse parses a comma-separated kind list. "" and "all" both mean
// every kind and return nil, which a schedule reads as every kind.
func (t *Table[K]) Parse(list string) ([]K, error) {
	if list == "" || list == "all" {
		return nil, nil
	}
	var out []K
	for _, name := range strings.Split(list, ",") {
		k, err := t.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Counts is the number of faults applied, by kind.
type Counts[K KindType] [maxKinds]uint64

// Total returns the total applied faults.
func (c Counts[K]) Total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// String renders the non-zero counts, e.g. "bitflip=3 evict=1".
func (c Counts[K]) String() string {
	var parts []string
	for k := 1; k < maxKinds; k++ {
		if c[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", K(k), c[k]))
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, " ")
}

// Rand is a splitmix64 stream, the seeded generator behind every fault
// and kill schedule. Its value is the stream's state; a seed is a
// valid state.
type Rand uint64

// Next advances the stream and returns its next value.
func (r *Rand) Next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Schedule is one seeded fault schedule over a plane's kinds: a Rand
// stream, the enabled kinds, the MaxFaults cap and the decision and
// applied counters. Every draw comes from the stream, so the schedule
// is a pure function of the seed and the order of the calls. It is not
// safe for concurrent use.
type Schedule[K KindType] struct {
	t         *Table[K]
	rng       Rand
	enabled   [maxKinds]bool
	maxFaults int
	decisions uint64
	applied   Counts[K]
}

// NewSchedule starts the schedule for seed over t's kinds. kinds
// restricts it (nil = every kind; the no-fault kind and out-of-range
// kinds are ignored), and maxFaults caps the faults applied (0 or less
// = unlimited).
func NewSchedule[K KindType](t *Table[K], seed uint64, kinds []K, maxFaults int) Schedule[K] {
	s := Schedule[K]{t: t, rng: Rand(seed), maxFaults: maxFaults}
	if len(kinds) == 0 {
		kinds = t.All()
	}
	for _, k := range kinds {
		if k > 0 && int(k) < len(t.names) {
			s.enabled[k] = true
		}
	}
	return s
}

// Decide draws one decision: fire with probability 1/rate, choosing
// uniformly among the enabled members of pool. Once MaxFaults faults
// are applied it counts the decision, draws nothing and returns the
// no-fault kind.
func (s *Schedule[K]) Decide(rate int, pool []K) K {
	s.decisions++
	if s.maxFaults > 0 && s.applied.Total() >= uint64(s.maxFaults) {
		return 0
	}
	if s.rng.Next()%uint64(rate) != 0 {
		return 0
	}
	var candidates []K
	for _, k := range pool {
		if s.enabled[k] {
			candidates = append(candidates, k)
		}
	}
	if len(candidates) == 0 {
		return 0
	}
	return candidates[s.rng.Next()%uint64(len(candidates))]
}

// Next draws the stream's next value, for a fault's sub-draws (a
// corruption site, a torn write's length).
func (s *Schedule[K]) Next() uint64 { return s.rng.Next() }

// Applied records that a fault of kind k was applied (a decision whose
// application found no viable site is not counted) and returns its
// sequence number, the applied total. The no-fault kind and
// out-of-range kinds record nothing and return 0.
func (s *Schedule[K]) Applied(k K) uint64 {
	if k == 0 || int(k) >= len(s.t.names) {
		return 0
	}
	s.applied[k]++
	return s.applied.Total()
}

// Counts returns the faults applied so far, by kind.
func (s *Schedule[K]) Counts() Counts[K] { return s.applied }

// Decisions returns the number of decision points consulted.
func (s *Schedule[K]) Decisions() uint64 { return s.decisions }
