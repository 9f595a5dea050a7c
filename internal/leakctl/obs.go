package leakctl

import (
	"fmt"

	"hotleakage/internal/obs"
)

// dcacheCounters holds one controlled cache's counters (leakctl_dl1_*,
// leakctl_il1_* when the I-cache is controlled), resolved once, so the
// per-chunk flush never takes the registry lock.
type dcacheCounters struct {
	accesses, hits, slowHits, misses     *obs.Counter
	inducedMisses, trueMisses            *obs.Counter
	tagWakeStalls                        *obs.Counter
	sleepTransitions, wakeTransitions    *obs.Counter
	decayWritebacks, evictWritebacks     *obs.Counter
	fills, wakePenaltyCycles, adaptTunes *obs.Counter
	l2NS, l2Sampled                      *obs.Counter
}

func newDCacheCounters(name string) *dcacheCounters {
	c := func(kind string) *obs.Counter {
		return obs.Default.Counter(fmt.Sprintf("leakctl_%s_%s_total", name, kind))
	}
	return &dcacheCounters{
		accesses:          c("accesses"),
		hits:              c("hits"),
		slowHits:          c("slow_hits"),
		misses:            c("misses"),
		inducedMisses:     c("induced_misses"),
		trueMisses:        c("true_misses"),
		tagWakeStalls:     c("tag_wake_stalls"),
		sleepTransitions:  c("sleep_transitions"),
		wakeTransitions:   c("wake_transitions"),
		decayWritebacks:   c("decay_writebacks"),
		evictWritebacks:   c("evict_writebacks"),
		fills:             c("fills"),
		wakePenaltyCycles: c("wake_penalty_cycles"),
		adaptTunes:        c("adapter_retunes"),
		l2NS:              c("l2_ns"),
		l2Sampled:         c("l2_sampled_misses"),
	}
}

// ObsFlush adds the Stats delta since the previous flush to the shared
// counters. The wake-penalty-cycles counter is derived: every slow hit
// and every tag-wake-stalled miss costs the pipeline WakeLatency extra
// cycles (Access/finishHit), so the counter is their sum scaled by the
// latency.
func (d *DCache) ObsFlush() {
	if d.counters == nil {
		d.counters = newDCacheCounters(d.Cfg.Name)
	}
	cur, prev := d.Stats, d.obsPrev
	o := d.counters
	o.accesses.Add(obs.Delta(cur.Accesses, prev.Accesses))
	o.hits.Add(obs.Delta(cur.Hits, prev.Hits))
	o.slowHits.Add(obs.Delta(cur.SlowHits, prev.SlowHits))
	o.misses.Add(obs.Delta(cur.Misses, prev.Misses))
	o.inducedMisses.Add(obs.Delta(cur.InducedMisses, prev.InducedMisses))
	o.trueMisses.Add(obs.Delta(cur.TrueMisses, prev.TrueMisses))
	o.tagWakeStalls.Add(obs.Delta(cur.TagWakeStalls, prev.TagWakeStalls))
	o.sleepTransitions.Add(obs.Delta(cur.SleepTransitions, prev.SleepTransitions))
	o.wakeTransitions.Add(obs.Delta(cur.WakeTransitions, prev.WakeTransitions))
	o.decayWritebacks.Add(obs.Delta(cur.DecayWritebacks, prev.DecayWritebacks))
	o.evictWritebacks.Add(obs.Delta(cur.EvictWritebacks, prev.EvictWritebacks))
	o.fills.Add(obs.Delta(cur.Fills, prev.Fills))
	stalled := obs.Delta(cur.SlowHits, prev.SlowHits) + obs.Delta(cur.TagWakeStalls, prev.TagWakeStalls)
	o.wakePenaltyCycles.Add(stalled * uint64(d.P.WakeLatency))
	o.adaptTunes.Add(obs.Delta(d.AdaptChanges, d.obsPrevAdapt))
	o.l2NS.Add(obs.Delta(d.l2NS, d.obsPrevL2NS))
	o.l2Sampled.Add(obs.Delta(d.l2Sampled, d.obsPrevL2Samp))
	d.obsPrev = cur
	d.obsPrevAdapt = d.AdaptChanges
	d.obsPrevL2NS = d.l2NS
	d.obsPrevL2Samp = d.l2Sampled
}
