// Package cachesim models the memory hierarchy of Table 1: per-level
// set-associative caches with LRU or random replacement feeding a
// fixed-latency memory. Accesses return total latency in cycles; the
// timing models add it to load/store execution.
package cachesim

// Replacement policy.
type Policy uint8

const (
	LRU Policy = iota
	Random
)

// Cache is one cache level.
type Cache struct {
	name     string
	lineBits uint
	sets     int
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	ways     int
	latency  int64
	policy   Policy
	lines    []line
	next     Level // next level (L2 or memory)
	rng      uint64

	Accesses uint64
	Misses   uint64
}

type line struct {
	valid bool
	tag   uint64
	lru   uint64
}

// Level is anything that can service a miss.
type Level interface {
	Access(addr uint64, write bool) int64
}

// Memory is the fixed-latency DRAM model (72-cycle latency, 64-bit wide,
// 4-cycle burst: a 64-byte line transfer costs 72 + 8*4/2... modelled as
// latency + burst cycles per line).
type Memory struct {
	Latency int64
	Burst   int64

	Accesses uint64
}

// Access implements Level.
func (m *Memory) Access(addr uint64, write bool) int64 {
	m.Accesses++
	return m.Latency + m.Burst
}

// DefaultMemory returns the paper's 72-cycle, 4-cycle-burst memory.
func DefaultMemory() *Memory { return &Memory{Latency: 72, Burst: 4} }

// New builds a cache level. size and lineSize are in bytes.
func New(name string, size, lineSize, ways int, latency int64, policy Policy, next Level) *Cache {
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	sets := size / lineSize / ways
	if sets <= 0 {
		panic("cachesim: bad geometry for " + name)
	}
	var setMask uint64
	if sets&(sets-1) == 0 {
		setMask = uint64(sets - 1)
	}
	return &Cache{
		name:     name,
		lineBits: lineBits,
		sets:     sets,
		setMask:  setMask,
		ways:     ways,
		latency:  latency,
		policy:   policy,
		lines:    make([]line, sets*ways),
		next:     next,
		rng:      0x9E3779B97F4A7C15,
	}
}

func (c *Cache) set(addr uint64) ([]line, uint64) {
	block := addr >> c.lineBits
	s := int(block & c.setMask)
	if c.setMask == 0 {
		s = int(block) % c.sets
	}
	return c.lines[s*c.ways : (s+1)*c.ways], block
}

func (c *Cache) victim(set []line) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	if c.policy == Random {
		// xorshift64 for deterministic "random" replacement.
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		return int(c.rng % uint64(len(set)))
	}
	v := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[v].lru {
			v = i
		}
	}
	return v
}

// Access implements Level: it returns the total latency to service the
// access, filling on a miss.
func (c *Cache) Access(addr uint64, write bool) int64 {
	c.Accesses++
	set, tag := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.Accesses
			return c.latency
		}
	}
	c.Misses++
	lat := c.latency
	if c.next != nil {
		lat += c.next.Access(addr, write)
	}
	v := c.victim(set)
	set[v] = line{valid: true, tag: tag, lru: c.Accesses}
	return lat
}

// Hierarchy bundles the Table 1 memory system for one simulated machine.
type Hierarchy struct {
	I   *Cache
	D   []*Cache // one per PE when replicated; a single entry otherwise
	L2  *Cache
	Mem *Memory
}

// Options configures a hierarchy.
type Options struct {
	DSizeBytes int // 32 KB or 8 KB
	DWays      int // 4 or 2
	Replicas   int // 1 for shared; number of PEs when replicated
}

// DefaultOptions is the superscalar configuration: shared 32KB 4-way D$.
func DefaultOptions() Options { return Options{DSizeBytes: 32 << 10, DWays: 4, Replicas: 1} }

// NewHierarchy builds I/D/L2/memory per Table 1. Zero options take
// DefaultOptions' values.
func NewHierarchy(opt Options) *Hierarchy {
	memory := DefaultMemory()
	l2 := New("L2", 1<<20, 128, 4, 8, Random, memory)
	h := &Hierarchy{
		I:   New("I$", 32<<10, 128, 1, 0, LRU, l2),
		L2:  l2,
		Mem: memory,
	}
	def := DefaultOptions()
	if opt.DSizeBytes <= 0 {
		opt.DSizeBytes = def.DSizeBytes
	}
	if opt.DWays <= 0 {
		opt.DWays = def.DWays
	}
	if opt.Replicas <= 0 {
		opt.Replicas = def.Replicas
	}
	for i := 0; i < opt.Replicas; i++ {
		h.D = append(h.D, New("D$", opt.DSizeBytes, 64, opt.DWays, 2, Random, l2))
	}
	return h
}
