package cache

import (
	"fmt"
	"testing"

	"hotleakage/internal/stats"
)

// refCache is a brute-force set-associative write-back LRU reference
// model: per set, a slice of resident lines ordered most-recently-used
// first, each with its dirty bit.
type refCache struct {
	sets       [][]refLine
	assoc      int
	lineShift  uint
	setMask    uint64
	writebacks uint64
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
			r.writebacks++
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
				r.writebacks++
			}
		}
		r.sets[i] = nil
	}
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
