package cache

import (
	"testing"
	"testing/quick"

	"hotleakage/internal/tech"
)

func p70() *tech.Params { return tech.MustByNode(tech.Node70) }

func tinyCfg() Config {
	return Config{Name: "t", SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 2}
}

func TestConfigValidate(t *testing.T) {
	good := tinyCfg()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []Config{
		{Name: "zero"},
		{Name: "notpow2", SizeBytes: 3 * 1024, LineBytes: 64, Assoc: 2, HitLatency: 1},
		{Name: "oddline", SizeBytes: 1024, LineBytes: 48, Assoc: 2, HitLatency: 1},
		{Name: "nolat", SizeBytes: 1024, LineBytes: 64, Assoc: 2, HitLatency: 0},
		// A way's LRU rank is one byte.
		{Name: "assoc512", SizeBytes: 512 * 64, LineBytes: 64, Assoc: 512, HitLatency: 1},
		// Fewer than two line-offset plus set-index bits: the tag would
		// reach the valid and dirty flags.
		{Name: "nobits", SizeBytes: 2, LineBytes: 1, Assoc: 2, HitLatency: 1},
		{Name: "onebit", SizeBytes: 4, LineBytes: 2, Assoc: 2, HitLatency: 1},
		{Name: "oneset", SizeBytes: 4, LineBytes: 1, Assoc: 2, HitLatency: 1},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q accepted", c.Name)
		}
	}
	// The edges of both limits are valid.
	for _, c := range []Config{
		{Name: "assoc256", SizeBytes: 256 * 64, LineBytes: 64, Assoc: 256, HitLatency: 1},
		{Name: "twobits", SizeBytes: 8, LineBytes: 2, Assoc: 2, HitLatency: 1},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("config %q rejected: %v", c.Name, err)
		}
	}
}

// TestNarrowGeometryKeepsTags drives the narrowest valid geometry (two
// line-offset plus set-index bits) with the widest tag a line's word
// holds, all 30 bits set, in the second set: it must not be mistaken for
// the tag that differs in its top bit, and a dirty line must write back to
// the address it was filled from. A tag one bit wider must panic rather
// than alias a line.
func TestNarrowGeometryKeepsTags(t *testing.T) {
	mem := NewMemory(p70(), 10)
	c := MustNew(p70(), Config{Name: "n", SizeBytes: 8, LineBytes: 2, Assoc: 2, HitLatency: 1}, mem)
	hi, lo := uint64(1<<32-2), uint64(0x4)
	c.Access(hi, true, 1)
	c.Access(lo, false, 2)
	if !c.Contains(hi) || !c.Contains(lo) || c.Contains(hi^1<<31) {
		t.Fatal("tag with its top bit set not told apart")
	}
	before := c.Stats
	if !wideTagPanics(func() { c.Access(hi|1<<32, true, 3) }) {
		t.Fatal("a 31-bit tag did not panic")
	}
	if got := c.Stats; got.Hits != before.Hits || got.Fills != before.Fills || got.Writebacks != before.Writebacks {
		t.Fatalf("a refused access moved the stats: %+v, want %+v", got, before)
	}
	wb := &recordingLevel{}
	c.Next = wb
	c.Flush(4)
	if len(wb.writes) != 1 || wb.writes[0] != hi {
		t.Fatalf("flush wrote back %#x, want [%#x]", wb.writes, hi)
	}
}

// wideTagPanics reports whether f panics with Locate's refusal of a tag
// wider than a line's word holds.
func wideTagPanics(f func()) (ok bool) {
	defer func() { _, ok = recover().(wideTagError) }()
	f()
	return false
}

// recordingLevel is a next level that records the addresses written to
// it.
type recordingLevel struct{ writes []uint64 }

func (r *recordingLevel) Access(addr uint64, write bool, _ uint64) int {
	if write {
		r.writes = append(r.writes, addr)
	}
	return 0
}

func (r *recordingLevel) Name() string { return "rec" }

func TestConfigSets(t *testing.T) {
	c := Config{SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 2}
	if c.Sets() != 512 {
		t.Fatalf("Sets = %d, want 512", c.Sets())
	}
}

func TestHitAfterMiss(t *testing.T) {
	mem := NewMemory(p70(), 100)
	c := MustNew(p70(), tinyCfg(), mem)
	addr := uint64(0x1000)
	lat := c.Access(addr, false, 1)
	if lat != 2+100 {
		t.Fatalf("cold miss latency = %d, want 102", lat)
	}
	if lat := c.Access(addr, false, 2); lat != 2 {
		t.Fatalf("hit latency = %d, want 2", lat)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestSameLineDifferentWordsHit(t *testing.T) {
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	c.Access(0x1000, false, 1)
	if lat := c.Access(0x1038, false, 2); lat != 2 {
		t.Fatalf("same-line access missed: %d", lat)
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	// 8 sets, 2 ways. Three lines in the same set: the least recently
	// used must be evicted.
	set0 := func(i uint64) uint64 { return i * 8 * 64 } // same set index 0
	c.Access(set0(1), false, 1)
	c.Access(set0(2), false, 2)
	c.Access(set0(1), false, 3) // refresh line 1
	c.Access(set0(3), false, 4) // evicts line 2
	if !c.Contains(set0(1)) || !c.Contains(set0(3)) {
		t.Fatal("expected lines 1 and 3 resident")
	}
	if c.Contains(set0(2)) {
		t.Fatal("line 2 should have been evicted (LRU)")
	}
}

func TestWritebackDirtyVictim(t *testing.T) {
	mem := NewMemory(p70(), 100)
	c := MustNew(p70(), tinyCfg(), mem)
	set0 := func(i uint64) uint64 { return i * 8 * 64 }
	c.Access(set0(1), true, 1) // dirty
	c.Access(set0(2), false, 2)
	c.Access(set0(3), false, 3) // evicts dirty line 1
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// The writeback reaches memory as a write access.
	if mem.Stats.Accesses != 4 { // 3 fills + 1 writeback
		t.Fatalf("memory accesses = %d, want 4", mem.Stats.Accesses)
	}
}

func TestWriteAllocates(t *testing.T) {
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	c.Access(0x2000, true, 1)
	if !c.Contains(0x2000) {
		t.Fatal("write did not allocate")
	}
}

func TestHierarchyLatency(t *testing.T) {
	mem := NewMemory(p70(), 100)
	l2 := MustNew(p70(), Config{Name: "l2", SizeBytes: 4096, LineBytes: 64, Assoc: 2, HitLatency: 11}, mem)
	l1 := MustNew(p70(), tinyCfg(), l2)
	// Cold: L1 miss + L2 miss + memory.
	if lat := l1.Access(0x4000, false, 1); lat != 2+11+100 {
		t.Fatalf("cold latency = %d, want 113", lat)
	}
	// L1 hit.
	if lat := l1.Access(0x4000, false, 2); lat != 2 {
		t.Fatalf("L1 hit = %d", lat)
	}
	// Evict from L1 (same set pressure), keep in L2: L1 miss + L2 hit.
	set := func(i uint64) uint64 { return 0x4000 + i*8*64 }
	l1.Access(set(1), false, 3)
	l1.Access(set(2), false, 4)
	if lat := l1.Access(0x4000, false, 5); lat != 2+11 {
		t.Fatalf("L2 hit path = %d, want 13", lat)
	}
}

func TestFlush(t *testing.T) {
	mem := NewMemory(p70(), 100)
	c := MustNew(p70(), tinyCfg(), mem)
	c.Access(0x1000, true, 1)
	c.Access(0x2000, false, 2)
	c.Flush(3)
	if c.Contains(0x1000) || c.Contains(0x2000) {
		t.Fatal("flush left lines resident")
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("flush writebacks = %d, want 1 (only the dirty line)", c.Stats.Writebacks)
	}
}

func TestEnergyAccumulates(t *testing.T) {
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	c.Access(0x1000, false, 1)
	j1 := c.DynJ
	c.Access(0x1000, false, 2)
	if c.DynJ <= j1 || j1 <= 0 {
		t.Fatalf("energy not accumulating: %v -> %v", j1, c.DynJ)
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	c.Access(0x1000, false, 1)
	c.ResetStats()
	if c.Stats.Accesses != 0 || c.DynJ != 0 {
		t.Fatal("ResetStats incomplete")
	}
	if !c.Contains(0x1000) {
		t.Fatal("ResetStats must keep contents")
	}
}

func TestMemoryWriteOffCriticalPath(t *testing.T) {
	mem := NewMemory(p70(), 100)
	if lat := mem.Access(0, true, 1); lat != 0 {
		t.Fatalf("memory write latency = %d, want 0 (buffered)", lat)
	}
	if lat := mem.Access(0, false, 1); lat != 100 {
		t.Fatalf("memory read latency = %d", lat)
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate not 0")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Errorf("miss rate = %v", s.MissRate())
	}
}

func TestIndexRoundTrip(t *testing.T) {
	// Property: set/tag decomposition is injective per line address.
	c := MustNew(p70(), Config{Name: "p", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 2, HitLatency: 1}, nil)
	f := func(a, b uint64) bool {
		a &= (1 << 40) - 1
		b &= (1 << 40) - 1
		sa, ta := c.lines.Locate(a)
		sb, tb := c.lines.Locate(b)
		if a>>6 == b>>6 {
			return sa == sb && ta == tb
		}
		return sa != sb || ta != tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContainsConsistencyProperty(t *testing.T) {
	// Property: immediately after any access, the line is resident.
	c := MustNew(p70(), tinyCfg(), NewMemory(p70(), 100))
	cycle := uint64(0)
	f := func(addr uint64, write bool) bool {
		cycle++
		addr &= (1 << 30) - 1
		c.Access(addr, write, cycle)
		return c.Contains(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidConfigIsAnError(t *testing.T) {
	if _, err := New(p70(), Config{Name: "bad"}, nil); err == nil {
		t.Fatal("New with invalid config returned no error")
	}
	if _, err := New(nil, tinyCfg(), nil); err == nil {
		t.Fatal("New with nil tech params returned no error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with invalid config did not panic")
		}
	}()
	MustNew(p70(), Config{Name: "bad"}, nil)
}
