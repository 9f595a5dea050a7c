// Package cache implements the simulated memory hierarchy: set-associative
// write-back, write-allocate caches with LRU replacement, plus a
// fixed-latency main memory. The baseline L1 instruction cache, the unified
// L2 and memory live here; the leakage-controlled L1 data cache (package
// leakctl) is built on the same line store, Lines.
package cache

import (
	"fmt"
	"math/bits"

	"hotleakage/internal/power"
	"hotleakage/internal/tech"
)

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Assoc      int
	HitLatency int
	Banks      int // physical banks for the energy model (>=1)
	TagBits    int // defaults to a 40-bit physical address tag if 0
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// Validate reports configuration errors (non-power-of-two geometry, zero
// sizes, more ways than a byte can rank, too few index bits for a tag to
// cover every 32-bit address) before they become index-arithmetic bugs.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: size, line and assoc must be positive", c.Name)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, s)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.HitLatency < 1 {
		return fmt.Errorf("cache %q: hit latency must be >= 1", c.Name)
	}
	if c.Assoc > maxAssoc {
		return fmt.Errorf("cache %q: associativity %d exceeds %d (a way's LRU rank is one byte)", c.Name, c.Assoc, maxAssoc)
	}
	if b := bits.TrailingZeros(uint(c.LineBytes)) + bits.TrailingZeros(uint(s)); b < minIndexBits {
		return fmt.Errorf("cache %q: %d line-offset plus set-index bits and a %d-bit tag do not cover a 32-bit address", c.Name, b, tagBits)
	}
	return nil
}

// Geometry returns the energy-model geometry for this configuration.
func (c Config) Geometry() power.CacheGeometry {
	tb := c.TagBits
	if tb == 0 {
		tb = 40 - bits.TrailingZeros(uint(c.LineBytes)) - bits.TrailingZeros(uint(c.Sets()))
		// valid + dirty + LRU state travel with the tag.
		tb += 3
	}
	banks := c.Banks
	if banks < 1 {
		banks = 1
	}
	return power.CacheGeometry{
		Sets: c.Sets(), Assoc: c.Assoc, LineBytes: c.LineBytes,
		TagBits: tb, Banks: banks,
	}
}

// Stats accumulates per-level event counts.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
	Fills      uint64
}

// MissRate returns misses/accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Level is anything that can service a line-granular access and report its
// latency in cycles. Memory and Cache both implement it.
type Level interface {
	// Access services a demand access to addr. write distinguishes
	// stores. The returned latency is the full latency of this level and
	// anything below it.
	Access(addr uint64, write bool, cycle uint64) int
	// Name identifies the level in reports.
	Name() string
}

// Memory is the fixed-latency DRAM backstop.
type Memory struct {
	Latency int
	Energy  float64 // per access, joules
	Stats   Stats
	DynJ    float64
}

// NewMemory builds main memory with the given access latency in cycles.
func NewMemory(p *tech.Params, latency int) *Memory {
	return &Memory{Latency: latency, Energy: power.MemoryAccessEnergy(p)}
}

// Access implements Level.
func (m *Memory) Access(addr uint64, write bool, cycle uint64) int {
	m.Stats.Accesses++
	if write {
		// Writes (writebacks) are buffered off the critical path.
		m.DynJ += m.Energy
		return 0
	}
	m.Stats.Hits++
	m.DynJ += m.Energy
	return m.Latency
}

// Name implements Level.
func (m *Memory) Name() string { return "memory" }

// ResetStats zeroes the event counters and energy meter (warmup support).
func (m *Memory) ResetStats() {
	m.Stats = Stats{}
	m.DynJ = 0
}

// Reset returns the memory to its just-built state (run-to-run reuse).
func (m *Memory) Reset() { m.ResetStats() }

// Cache is a plain (uncontrolled) set-associative write-back cache.
type Cache struct {
	Cfg    Config
	Next   Level
	Stats  Stats
	Energy power.CacheEnergy
	DynJ   float64 // accumulated dynamic energy in joules

	lines Lines

	// Observability flush state (see obs.go): counter IDs resolved once,
	// and the Stats value at the last flush for delta computation.
	obsIDs  *cacheObsIDs
	obsPrev Stats
}

// New builds a cache level on top of next. An invalid configuration is
// reported as an error before any simulation state is built, so a bad
// machine description fails one run instead of panicking a whole suite.
func New(p *tech.Params, cfg Config, next Level) (*Cache, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		Cfg:    cfg,
		Next:   next,
		Energy: power.NewCacheEnergy(p, cfg.Geometry()),
		lines:  NewLines(cfg),
	}, nil
}

// Reset returns the cache to the state New leaves it in — cold contents,
// zero stats and energy — while keeping the line store and energy model.
// It lets a worker reuse one cache allocation across many runs (the L2's
// line store is the dominant per-run allocation). next replaces the
// downstream level, which may itself have been reset.
func (c *Cache) Reset(next Level) {
	c.Next = next
	c.Stats = Stats{}
	c.DynJ = 0
	c.lines.Clear()
	c.obsPrev = Stats{}
}

// MustNew is New for static configuration known to be valid (tests,
// examples); it panics on error.
func MustNew(p *tech.Params, cfg Config, next Level) *Cache {
	c, err := New(p, cfg, next)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Level.
func (c *Cache) Name() string { return c.Cfg.Name }

// HitLat returns the hit latency in cycles (cpu.FetchCache).
func (c *Cache) HitLat() int { return c.Cfg.HitLatency }

// Tick is a no-op for an uncontrolled cache (cpu.FetchCache).
func (c *Cache) Tick(uint64) {}

// NextTickEvent reports that an uncontrolled cache never needs a Tick
// (cpu.FetchCache).
func (c *Cache) NextTickEvent() uint64 { return ^uint64(0) }

// ResetStats zeroes the event counters and energy meter, keeping contents
// (warmup support).
func (c *Cache) ResetStats() {
	c.Stats = Stats{}
	c.DynJ = 0
	c.obsPrev = Stats{}
}

// Access implements Level: LRU lookup, miss to Next, write-back
// write-allocate fill.
func (c *Cache) Access(addr uint64, write bool, cycle uint64) int {
	c.Stats.Accesses++
	base, tag := c.lines.Locate(addr)

	if i := c.lines.Find(base, tag); i >= 0 {
		c.Stats.Hits++
		c.lines.Touch(base, i)
		if write {
			c.lines.SetDirty(i, true)
			c.DynJ += c.Energy.WriteHit
		} else {
			c.DynJ += c.Energy.ReadHit
		}
		return c.Cfg.HitLatency
	}

	// Miss.
	c.Stats.Misses++
	c.DynJ += c.Energy.TagProbe
	lat := c.Cfg.HitLatency
	if c.Next != nil {
		lat += c.Next.Access(addr, false, cycle)
	}
	// Fill the first invalid line, else the least recently used one,
	// writing back a dirty victim.
	v := c.lines.Victim(base)
	if c.lines.Dirty(v) {
		c.writeback(v, cycle)
	}
	c.lines.Fill(base, v, tag, write)
	c.Stats.Fills++
	c.DynJ += c.Energy.LineFill
	return lat
}

// writeback pushes dirty line i to the next level (off the critical path;
// energy and traffic only).
func (c *Cache) writeback(i int, cycle uint64) {
	c.Stats.Writebacks++
	c.DynJ += c.Energy.LineRead
	if c.Next != nil {
		c.Next.Access(c.lines.Addr(i), true, cycle)
	}
}

// Contains reports whether addr's line is present (for tests and the
// harness; does not touch LRU or stats).
func (c *Cache) Contains(addr uint64) bool {
	return c.lines.Find(c.lines.Locate(addr)) >= 0
}

// Flush invalidates every line, writing back dirty ones.
func (c *Cache) Flush(cycle uint64) {
	for i := range c.lines.Len() {
		if c.lines.Dirty(i) {
			c.writeback(i, cycle)
		}
	}
	c.lines.Clear()
}
