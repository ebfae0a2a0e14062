// Package workload generates the twelve synthetic Alpha kernels that stand
// in for the SPEC CPU2000 integer benchmarks of the paper's evaluation.
//
// Real SPEC binaries compiled for Alpha EV6 are not available in this
// environment, so each kernel is constructed to stress the same mechanism
// its counterpart stresses in the paper: gzip's byte-stream strands, mcf's
// dependent pointer chasing, perlbmk's indirect-dispatch chaining load,
// eon's call/return depth, crafty's 64-bit logical chains, and so on. The
// evaluation cares about control-flow and dependence *shape* — branch mix,
// indirect-jump frequency, strand lengths, value "globalness" — not SPEC
// semantics, and those shapes are what the generators reproduce.
//
// All kernels are deterministic, self-contained (no input files), bounded,
// and end with the exit system call. The scale parameter multiplies the
// main loop trip counts so tests can run in milliseconds while benchmarks
// run long enough to amortise translation.
package workload

import (
	"fmt"
	"sort"

	"github.com/ildp/accdbt/internal/alpha/alphaasm"
	"github.com/ildp/accdbt/internal/alphaprog"
)

// Spec is one generated workload.
type Spec struct {
	Name        string
	Description string
	Source      string
}

// Program assembles the workload.
func (s *Spec) Program() (*alphaprog.Program, error) {
	p, err := alphaasm.Assemble(s.Source)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	return p, nil
}

// MustProgram assembles the workload, panicking on error (generator bugs).
func (s *Spec) MustProgram() *alphaprog.Program {
	p, err := s.Program()
	if err != nil {
		panic(err)
	}
	return p
}

type generator func(scale int, seed uint64) string

var generators = map[string]struct {
	gen  generator
	desc string
}{
	"bzip2":   {genBzip2, "block transform: array sort passes and run-length scans"},
	"crafty":  {genCrafty, "bitboard search: 64-bit logical strands and popcounts"},
	"eon":     {genEon, "call-heavy rendering kernel: deep BSR/RET chains and virtual calls"},
	"gap":     {genGap, "computer-algebra interpreter: bytecode dispatch and bignum adds"},
	"gcc":     {genGCC, "branchy compiler passes: many basic blocks and switch tables"},
	"gzip":    {genGzip, "LZ byte-stream compression: Fig. 2 style hash/checksum strands"},
	"mcf":     {genMCF, "network simplex: dependent pointer chasing over arc lists"},
	"parser":  {genParser, "dictionary lookup: hashing and string-compare loops"},
	"perlbmk": {genPerlbmk, "interpreter dispatch: dominant indirect jumps through an op table"},
	"twolf":   {genTwolf, "place-and-route annealing: array indexing, multiplies, cmovs"},
	"vortex":  {genVortex, "OO database: object field traffic and call chains"},
	"vpr":     {genVPR, "FPGA routing: grid walks with data-dependent branches"},
}

// adversarial holds hostile guests used by the hardening tests and CI
// smokes (DESIGN.md §15). They resolve through ByName/ByNameSeeded like
// any benchmark but are deliberately excluded from Names()/All(): they
// are attack tools, not SPEC stand-ins, and must not perturb Table-2
// sweeps or the generated experiment reports.
var adversarial = map[string]struct {
	gen  generator
	desc string
}{
	"membomb": {genMembomb, "memory bomb: strides a store across fresh pages until governed"},
}

// Names returns all workload names in SPEC order (alphabetical, as in
// Table 2). Adversarial guests (membomb) are excluded; see ByName.
func Names() []string {
	out := make([]string, 0, len(generators))
	for name := range generators {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ByName generates one workload with the canonical data seed.
func ByName(name string, scale int) (*Spec, error) {
	return ByNameSeeded(name, scale, 0)
}

// ByNameSeeded generates one workload with a perturbed data seed: the
// program structure is identical, but the pseudo-random fills (and so the
// data-dependent branch and hash behaviour) differ. Seed 0 is the
// canonical dataset used in EXPERIMENTS.md.
func ByNameSeeded(name string, scale int, seed uint64) (*Spec, error) {
	g, ok := generators[name]
	if !ok {
		g, ok = adversarial[name]
	}
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	if scale <= 0 {
		scale = 1
	}
	return &Spec{Name: name, Description: g.desc, Source: g.gen(scale, seed)}, nil
}

// All generates every workload at the given scale (canonical seed).
func All(scale int) []*Spec { return AllSeeded(scale, 0) }

// AllSeeded generates every workload with the given data seed.
func AllSeeded(scale int, seed uint64) []*Spec {
	var out []*Spec
	for _, name := range Names() {
		s, err := ByNameSeeded(name, scale, seed)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

// dataSeed derives a 28-bit fill constant for a generator: seed 0 returns
// the canonical value; other seeds mix it so runs explore different data.
func dataSeed(canonical int64, seed uint64, salt uint64) int64 {
	if seed == 0 {
		return canonical
	}
	x := seed*0x9E3779B97F4A7C15 + salt*0xBF58476D1CE4E5B9 + uint64(canonical)
	x ^= x >> 29
	x *= 0x94D049BB133111EB
	x ^= x >> 32
	return int64(x&0x0FFFFFFF) | 1
}

// prologue establishes the stack and jumps to main code; epilogue exits.
const prologue = `
	.text 0x10000
	.entry start
start:
	ldiq  sp, 0x7ff000
`

const epilogue = `
done:
	lda   v0, 1(zero)
	clr   a0
	call_pal callsys
`

// lcg is the deterministic pseudo-random source used by the generators.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l)
}
