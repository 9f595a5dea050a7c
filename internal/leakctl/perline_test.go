package leakctl

import "testing"

// buildParams constructs a controlled cache with explicit params over the
// standard test hierarchy (11-cycle L2 + memory).
func buildParams(p Params) *DCache {
	plain, _ := build(p.Technique, p.Interval)
	return MustNew(p70(), plain.Cfg, p, plain.Next)
}

func TestPerLineAdaptivePromotesOnInducedMiss(t *testing.T) {
	p := DefaultParams(TechGated, 1024)
	p.PerLineAdaptive = true
	d := buildParams(p)
	if !d.Machine.PerLine() {
		t.Fatal("machine not in per-line mode")
	}
	a := addr(0, 1)
	cyc := uint64(1)
	// Access, decay, re-access (induced miss) a few times: the line's
	// selector must climb.
	for round := uint(0); round < 3; round++ {
		d.Access(a, false, cyc)
		cyc = idle(d, cyc, 1024<<(2*round))
		d.Access(a, false, cyc)
		cyc += 10
	}
	if d.Stats.InducedMisses == 0 {
		t.Fatal("no induced misses in the training phase")
	}
	if d.Machine.Promotions == 0 {
		t.Fatal("induced misses did not promote the line")
	}
	// Idle one base interval: the promoted line must survive and the
	// next access must be a plain hit.
	before := d.Stats.InducedMisses
	d.Tick(cyc + 1024 + 257)
	if !d.Contains(a) {
		t.Fatal("promoted line decayed at the base interval")
	}
	d.Access(a, false, cyc+1024+512)
	if d.Stats.InducedMisses != before {
		t.Fatal("access after base-interval idle was still an induced miss")
	}
}

func TestPerLineAdaptiveDemotesDeadLines(t *testing.T) {
	p := DefaultParams(TechGated, 1024)
	p.PerLineAdaptive = true
	d := buildParams(p)
	// Promote a line via an induced miss, then let it decay and die for
	// real: eviction by a different tag demotes it.
	d.Access(addr(0, 1), false, 1)
	cyc := idle(d, 1, 1024)
	d.Access(addr(0, 1), false, cyc) // induced -> promoted
	cyc = idle(d, cyc, 1024<<2)      // decays at its longer interval
	d.Access(addr(0, 2), false, cyc+1)
	d.Access(addr(0, 3), false, cyc+2) // set now full of fresh tags
	if d.Machine.Demotions == 0 {
		t.Fatal("dead decayed line eviction did not demote")
	}
}

func TestPerLineAdaptiveDrowsySlowHitPromotes(t *testing.T) {
	p := DefaultParams(TechDrowsy, 1024)
	p.PerLineAdaptive = true
	d := buildParams(p)
	d.Access(addr(0, 1), false, 1)
	cyc := idle(d, 1, 1024)
	d.Access(addr(0, 1), false, cyc)
	if d.Stats.SlowHits != 1 {
		t.Fatalf("slow hits = %d", d.Stats.SlowHits)
	}
	if d.Machine.Promotions != 1 {
		t.Fatalf("slow hit did not promote: %d", d.Machine.Promotions)
	}
}

func TestPerLineAdaptiveReducesInducedMisses(t *testing.T) {
	// Head-to-head on a periodic reuse pattern whose gap exceeds the
	// base interval: fixed decay keeps inducing misses; per-line learns.
	run := func(perLine bool) uint64 {
		p := DefaultParams(TechGated, 1024)
		p.PerLineAdaptive = perLine
		d := buildParams(p)
		cyc := uint64(1)
		for i := 0; i < 25; i++ {
			d.Access(addr(0, 1), false, cyc)
			cyc += 2500 // beyond the base interval
			d.Tick(cyc)
		}
		return d.Stats.InducedMisses
	}
	fixed := run(false)
	adaptive := run(true)
	if adaptive >= fixed {
		t.Fatalf("per-line adaptive (%d induced) not below fixed (%d)", adaptive, fixed)
	}
}

// TestVictimPrefersStandbyOverLeastRecentlyUsed gives one line of a 2-way
// drowsy set a longer per-line interval, so the set's least recently used
// line stays active while its most recently used one decays: a miss must
// evict the standby line, not the least recently used one.
func TestVictimPrefersStandbyOverLeastRecentlyUsed(t *testing.T) {
	p := DefaultParams(TechDrowsy, 1024)
	p.PerLineAdaptive = true
	d := buildParams(p)
	d.Access(addr(0, 1), false, 1)
	cyc := idle(d, 1, 1024)
	d.Access(addr(0, 1), false, cyc) // slow hit: tag 1's line promoted
	d.Access(addr(0, 2), false, cyc+1)
	cyc = idle(d, cyc+1, 1024) // tag 2 decays, tag 1 does not
	if d.StandbyNow() != 1 {
		t.Fatalf("%d lines in standby, want tag 2's alone", d.StandbyNow())
	}
	d.Access(addr(0, 3), false, cyc+1)
	if d.Contains(addr(0, 2)) || !d.Contains(addr(0, 1)) {
		t.Fatal("the miss evicted the least recently used line, not the standby one")
	}
}
