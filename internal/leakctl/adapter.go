package leakctl

// Adapter is the hook for runtime-adaptive decay intervals (the paper's
// Section 5.4: adaptive schemes "require the tags to stay awake" and use a
// small state machine to periodically update the decay-interval register).
// Recommend is consulted every AdaptEvery cycles with the cache's
// cumulative statistics; returning a different interval reprograms the
// decay machine in place.
type Adapter interface {
	// Recommend returns the decay interval to use from this point on.
	Recommend(cycle uint64, s Stats) uint64
	// Every returns the consultation period in cycles.
	Every() uint64
}

// adaptTick is called from Tick; kept separate so the fast path stays
// small.
func (d *DCache) adaptTick(cycle uint64) {
	if cycle < d.nextAdapt {
		return
	}
	d.nextAdapt = cycle + d.Adapter.Every()
	iv := d.Adapter.Recommend(cycle, d.Stats)
	if iv != 0 && iv != d.Machine.Interval() {
		d.Machine.SetInterval(iv, cycle)
		d.AdaptChanges++
	}
}
