package cache

import (
	"fmt"
	"slices"
	"testing"

	"hotleakage/internal/stats"
)

// refCache is a brute-force set-associative write-back LRU reference
// model: per set, a slice of resident lines ordered most-recently-used
// first, each with its dirty bit. Its line addresses are whole, so no tag
// width can alias them.
type refCache struct {
	sets       [][]refLine
	assoc      int
	lineShift  uint
	setMask    uint64
	writebacks uint64
	written    []uint64 // the address of every written-back line, in order
}

type refLine struct {
	addr  uint64 // line address
	dirty bool
}

func newRef(cfg Config) *refCache {
	r := &refCache{
		sets:  make([][]refLine, cfg.Sets()),
		assoc: cfg.Assoc,
	}
	ls := uint(0)
	for 1<<ls < cfg.LineBytes {
		ls++
	}
	r.lineShift = ls
	r.setMask = uint64(cfg.Sets() - 1)
	return r
}

// access touches addr and reports whether it hit.
func (r *refCache) access(addr uint64, write bool) bool {
	la := addr >> r.lineShift
	set := la & r.setMask
	s := r.sets[set]
	for i, l := range s {
		if l.addr == la {
			// Move to front.
			copy(s[1:i+1], s[:i])
			s[0] = refLine{la, l.dirty || write}
			return true
		}
	}
	// Miss: insert at front, evict past the associativity.
	s = append([]refLine{{la, write}}, s...)
	if len(s) > r.assoc {
		if s[r.assoc].dirty {
			r.writeback(s[r.assoc])
		}
		s = s[:r.assoc]
	}
	r.sets[set] = s
	return false
}

// flush empties every set, writing back the dirty lines.
func (r *refCache) flush() {
	for i, s := range r.sets {
		for _, l := range s {
			if l.dirty {
				r.writeback(l)
			}
		}
		r.sets[i] = nil
	}
}

func (r *refCache) writeback(l refLine) {
	r.writebacks++
	r.written = append(r.written, l.addr<<r.lineShift)
}

func TestCacheMatchesReferenceModel(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("assoc%d", assoc), func(t *testing.T) {
			cfg := Config{Name: "ref", SizeBytes: 4096, LineBytes: 64, Assoc: assoc, HitLatency: 1}
			c := MustNew(p70(), cfg, NewMemory(p70(), 10))
			ref := newRef(cfg)
			rng := stats.NewRNG(99 + uint64(assoc))

			const n = 200_000
			var hits, refHits uint64
			for i := 0; i < n; i++ {
				if i == n/2 {
					c.Flush(uint64(i))
					ref.flush()
				}
				// Skewed address stream over a modest footprint so hits
				// and misses both occur.
				addr := uint64(rng.Intn(4096)) * 64
				if rng.Bool(0.3) {
					addr = uint64(rng.Intn(64)) * 64 // hot subset
				}
				write := rng.Bool(0.3)
				wasHit := c.Contains(addr)
				c.Access(addr, write, uint64(i))
				refHit := ref.access(addr, write)
				if wasHit != refHit {
					t.Fatalf("access %d (addr %#x): cache hit=%v, reference hit=%v", i, addr, wasHit, refHit)
				}
				if c.Stats.Writebacks != ref.writebacks {
					t.Fatalf("access %d (addr %#x): cache wrote back %d lines, reference %d", i, addr, c.Stats.Writebacks, ref.writebacks)
				}
				if wasHit {
					hits++
				}
				if refHit {
					refHits++
				}
			}
			c.Flush(n)
			ref.flush()
			if c.Stats.Writebacks != ref.writebacks {
				t.Fatalf("final flush: cache wrote back %d lines, reference %d", c.Stats.Writebacks, ref.writebacks)
			}
			if hits != refHits || c.Stats.Hits != hits {
				t.Fatalf("hit totals diverged: cache=%d stats=%d ref=%d", hits, c.Stats.Hits, refHits)
			}
			if hits == 0 || hits == n || ref.writebacks == 0 {
				t.Fatalf("degenerate stream: %d/%d hits, %d writebacks", hits, n, ref.writebacks)
			}
		})
	}
}

// FuzzLineStore drives a fuzzed geometry (at least two line-offset plus
// set-index bits, 1-8 ways) with an access stream whose tags span all 30
// bits of a line's tag word, and checks the cache against refCache access
// for access: hits, writebacks and the written-back addresses, through a
// final Flush. An op is three bytes: the first picks one of 32 tags (0,
// all 30 bits set, the top bit alone, all but the top bit, and seeded
// random tags in pairs that differ in one bit) and whether the access
// writes; the second picks the set, the third the byte within the line.
// An op whose first byte has its top two bits set instead carries a tag
// that needs bit 30 or above, which must panic without a hit, fill or
// write-back. The seed corpus is in testdata/fuzz/FuzzLineStore.
func FuzzLineStore(f *testing.F) {
	f.Fuzz(func(t *testing.T, lineLog, setLog, ways uint8, seed uint64, ops []byte) {
		lineShift, setBits := uint(lineLog%7), uint(setLog%7)
		if lineShift+setBits < minIndexBits {
			t.Skip("fewer index bits than a valid geometry has")
		}
		cfg := Config{Name: "fuzz", LineBytes: 1 << lineShift, Assoc: int(ways%8) + 1, HitLatency: 1}
		cfg.SizeBytes = cfg.LineBytes * cfg.Assoc << setBits
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(seed)
		const maxTag = 1<<tagBits - 1
		pool := [32]uint64{0, maxTag, 1 << (tagBits - 1), maxTag ^ 1<<(tagBits-1)}
		for k := 4; k < len(pool); k += 2 {
			pool[k] = rng.Uint64() & maxTag
			pool[k+1] = pool[k] ^ 1<<rng.Intn(tagBits)
		}
		indexBits := lineShift + setBits
		addrOf := func(tag uint64, set, off byte) uint64 {
			return tag<<indexBits | uint64(set)&(1<<setBits-1)<<lineShift | uint64(off)&(1<<lineShift-1)
		}

		wb := &recordingLevel{}
		c := MustNew(p70(), cfg, wb)
		ref := newRef(cfg)
		for n := 0; n+3 <= len(ops); n += 3 {
			op, set, off := ops[n], ops[n+1], ops[n+2]
			write := op&0x20 != 0
			if op>>6 == 3 {
				wide := addrOf(pool[op&31], set, off) | 1<<(indexBits+tagBits+uint(off)%(64-indexBits-tagBits))
				before, nw := c.Stats, len(wb.writes)
				if !wideTagPanics(func() { c.Access(wide, write, uint64(n)) }) {
					t.Fatalf("op %d: address %#x with a tag wider than %d bits did not panic", n/3, wide, tagBits)
				}
				if got := c.Stats; got.Hits != before.Hits || got.Fills != before.Fills || got.Writebacks != before.Writebacks || len(wb.writes) != nw {
					t.Fatalf("op %d: refused address %#x moved the cache: %+v, want %+v", n/3, wide, got, before)
				}
				continue
			}
			addr := addrOf(pool[op&31], set, off)
			hits := c.Stats.Hits
			c.Access(addr, write, uint64(n))
			hit, refHit := c.Stats.Hits != hits, ref.access(addr, write)
			if hit != refHit {
				t.Fatalf("op %d (addr %#x): cache hit=%v, reference hit=%v", n/3, addr, hit, refHit)
			}
			if !slices.Equal(wb.writes, ref.written) {
				t.Fatalf("op %d (addr %#x): cache wrote back %#x, reference %#x", n/3, addr, wb.writes, ref.written)
			}
		}
		// A flush writes back set by set in a different order from the
		// reference's, so the flushed addresses compare as sorted lists.
		streamed := len(wb.writes)
		c.Flush(uint64(len(ops)))
		ref.flush()
		got, want := slices.Clone(wb.writes[streamed:]), slices.Clone(ref.written[streamed:])
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) || c.Stats.Writebacks != ref.writebacks {
			t.Fatalf("flush wrote back %#x (%d in all), reference %#x (%d)", got, c.Stats.Writebacks, want, ref.writebacks)
		}
	})
}
