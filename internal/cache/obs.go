package cache

import (
	"fmt"

	"hotleakage/internal/obs"
)

// cacheCounters holds one level's counters, resolved once, so the
// per-chunk flush never takes the registry lock. Counter names carry the
// level name (cache_ul2_misses_total, cache_il1_hits_total, ...): one
// registry serves every level without a label system.
type cacheCounters struct {
	accesses, hits, misses, writebacks, fills *obs.Counter
}

func newCacheCounters(name string) *cacheCounters {
	c := func(kind string) *obs.Counter {
		return obs.Default.Counter(fmt.Sprintf("cache_%s_%s_total", name, kind))
	}
	return &cacheCounters{
		accesses:   c("accesses"),
		hits:       c("hits"),
		misses:     c("misses"),
		writebacks: c("writebacks"),
		fills:      c("fills"),
	}
}

// ObsFlush adds the Stats delta since the previous flush to the shared
// counters.
func (c *Cache) ObsFlush() {
	if c.counters == nil {
		c.counters = newCacheCounters(c.Cfg.Name)
	}
	cur, prev := c.Stats, c.obsPrev
	c.counters.accesses.Add(obs.Delta(cur.Accesses, prev.Accesses))
	c.counters.hits.Add(obs.Delta(cur.Hits, prev.Hits))
	c.counters.misses.Add(obs.Delta(cur.Misses, prev.Misses))
	c.counters.writebacks.Add(obs.Delta(cur.Writebacks, prev.Writebacks))
	c.counters.fills.Add(obs.Delta(cur.Fills, prev.Fills))
	c.obsPrev = cur
}
