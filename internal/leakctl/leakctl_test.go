package leakctl

import (
	"fmt"
	"testing"

	"hotleakage/internal/cache"
	"hotleakage/internal/decay"
	"hotleakage/internal/stats"
	"hotleakage/internal/tech"
)

func p70() *tech.Params { return tech.MustByNode(tech.Node70) }

// smallCfg: 16 sets x 2 ways x 64B = 2 KB, hit latency 2.
func smallCfg() cache.Config {
	return cache.Config{Name: "dl1", SizeBytes: 2048, LineBytes: 64, Assoc: 2, HitLatency: 2}
}

// build makes a controlled cache over an 11-cycle L2 stub backed by memory.
func build(t Technique, interval uint64) (*DCache, *cache.Cache) {
	mem := cache.NewMemory(p70(), 100)
	l2 := cache.MustNew(p70(), cache.Config{Name: "l2", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 2, HitLatency: 11}, mem)
	d := MustNew(p70(), smallCfg(), DefaultParams(t, interval), l2)
	return d, l2
}

// addr returns an address in set `set` with tag index `tag`.
func addr(set, tag uint64) uint64 { return (tag*16 + set) * 64 }

// idle advances the decay machinery far enough to decay all idle lines.
func idle(d *DCache, from, interval uint64) uint64 {
	end := from + interval + interval/4 + 1
	d.Tick(end)
	return end
}

func TestBaselineNeverDecays(t *testing.T) {
	d, _ := build(TechNone, 0)
	d.Access(addr(0, 1), false, 1)
	idle(d, 1, 1<<20)
	if d.StandbyNow() != 0 {
		t.Fatal("baseline put lines in standby")
	}
	if lat := d.Access(addr(0, 1), false, 1<<21); lat != 2 {
		t.Fatalf("baseline hit latency = %d", lat)
	}
}

func TestDrowsySlowHit(t *testing.T) {
	d, _ := build(TechDrowsy, 4096)
	d.Access(addr(0, 1), false, 1)
	cyc := idle(d, 1, 4096)
	if d.StandbyNow() == 0 {
		t.Fatal("line did not decay")
	}
	lat := d.Access(addr(0, 1), false, cyc+1)
	if lat != 2+3 {
		t.Fatalf("slow hit latency = %d, want 5 (hit + 3-cycle tag/data wake)", lat)
	}
	if d.Stats.SlowHits != 1 || d.Stats.Misses != 1 {
		t.Fatalf("stats: %+v", d.Stats)
	}
	// Data was preserved: no L2 traffic for the slow hit.
	if d.Stats.InducedMisses != 0 {
		t.Fatal("drowsy recorded an induced miss")
	}
}

func TestDrowsyPreservesContents(t *testing.T) {
	d, _ := build(TechDrowsy, 4096)
	d.Access(addr(0, 1), false, 1)
	idle(d, 1, 4096)
	if !d.Contains(addr(0, 1)) {
		t.Fatal("drowsy line lost its contents")
	}
}

func TestGatedDestroysContents(t *testing.T) {
	d, _ := build(TechGated, 4096)
	d.Access(addr(0, 1), false, 1)
	idle(d, 1, 4096)
	if d.Contains(addr(0, 1)) {
		t.Fatal("gated line kept its contents")
	}
}

func TestGatedInducedMiss(t *testing.T) {
	d, l2 := build(TechGated, 4096)
	d.Access(addr(0, 1), false, 1)
	l2acc := l2.Stats.Accesses
	cyc := idle(d, 1, 4096)
	lat := d.Access(addr(0, 1), false, cyc+1)
	if lat != 2+11 {
		t.Fatalf("induced miss latency = %d, want 13 (L1 + L2 hit)", lat)
	}
	if d.Stats.InducedMisses != 1 {
		t.Fatalf("induced misses = %d", d.Stats.InducedMisses)
	}
	if l2.Stats.Accesses != l2acc+1 {
		t.Fatal("induced miss did not reach L2")
	}
}

func TestDrowsyTrueMissPaysTagWake(t *testing.T) {
	d, _ := build(TechDrowsy, 4096)
	d.Access(addr(0, 1), false, 1)
	cyc := idle(d, 1, 4096) // line 1 now drowsy in set 0
	// Miss to a different tag in the same set: tags must be woken first.
	lat := d.Access(addr(0, 2), false, cyc+1)
	if lat != 2+3+11+100 {
		t.Fatalf("drowsy true miss latency = %d, want 116 (tag wake + L2 + mem)", lat)
	}
	if d.Stats.TagWakeStalls != 1 {
		t.Fatalf("tag wake stalls = %d", d.Stats.TagWakeStalls)
	}
}

func TestGatedTrueMissFasterThanDrowsy(t *testing.T) {
	// The paper's point: with decayed tags, gated-Vss is FASTER than
	// drowsy on true misses because standby ways need not be checked.
	dg, _ := build(TechGated, 4096)
	dg.Access(addr(0, 1), false, 1)
	cyc := idle(dg, 1, 4096)
	glat := dg.Access(addr(0, 2), false, cyc+1)

	dd, _ := build(TechDrowsy, 4096)
	dd.Access(addr(0, 1), false, 1)
	cyc = idle(dd, 1, 4096)
	dlat := dd.Access(addr(0, 2), false, cyc+1)

	if glat >= dlat {
		t.Fatalf("gated true miss (%d) not faster than drowsy (%d)", glat, dlat)
	}
	if glat != 2+11+100 {
		t.Fatalf("gated true miss = %d, want baseline-equal 113", glat)
	}
}

func TestGatedDecayWritebackOfDirtyLine(t *testing.T) {
	d, l2 := build(TechGated, 4096)
	d.Access(addr(0, 1), true, 1) // dirty
	l2w := l2.Stats.Accesses
	idle(d, 1, 4096)
	if d.Stats.DecayWritebacks != 1 {
		t.Fatalf("decay writebacks = %d, want 1", d.Stats.DecayWritebacks)
	}
	if l2.Stats.Accesses != l2w+1 {
		t.Fatal("decay writeback did not reach L2")
	}
	// The line must now be clean: a later eviction writes nothing.
	if d.Energy.WritebackJ <= 0 {
		t.Fatal("writeback energy not charged")
	}
}

func TestDrowsyNoDecayWriteback(t *testing.T) {
	d, l2 := build(TechDrowsy, 4096)
	d.Access(addr(0, 1), true, 1)
	l2acc := l2.Stats.Accesses
	idle(d, 1, 4096)
	if d.Stats.DecayWritebacks != 0 || l2.Stats.Accesses != l2acc {
		t.Fatal("drowsy wrote back at decay (state is preserved; it must not)")
	}
}

func TestStandbyOccupancyAccounting(t *testing.T) {
	d, _ := build(TechGated, 4096)
	d.Access(addr(0, 1), false, 1)
	end := idle(d, 1, 4096)
	// Let it sit in standby for a while.
	end += 10000
	d.Tick(end)
	d.Finish(end)
	if d.StandbyLineCycles() == 0 {
		t.Fatal("no standby line-cycles recorded")
	}
	ratio := d.TurnoffRatio()
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("turnoff ratio = %v", ratio)
	}
}

func TestSettleDebtReducesStandby(t *testing.T) {
	// Gated's 30-cycle sleep settling forfeits standby time vs drowsy's 3.
	mk := func(tech Technique) uint64 {
		d, _ := build(tech, 1024)
		d.Access(addr(0, 1), false, 1)
		end := idle(d, 1, 1024) + 500
		d.Tick(end)
		d.Finish(end)
		return d.StandbyLineCycles()
	}
	if g, dr := mk(TechGated), mk(TechDrowsy); g >= dr {
		t.Fatalf("gated standby cycles (%d) not below drowsy (%d) under settle debt", g, dr)
	}
}

func TestVictimPrefersStandbyWay(t *testing.T) {
	d, _ := build(TechGated, 4096)
	d.Access(addr(0, 1), false, 1)
	d.Access(addr(0, 2), false, 2)
	cyc := idle(d, 2, 4096) // both decay
	// Re-access tag 2's line -> induced refill in place.
	d.Access(addr(0, 2), false, cyc+1)
	// A new tag should evict the remaining standby way, not the
	// freshly refilled one.
	d.Access(addr(0, 3), false, cyc+2)
	if !d.Contains(addr(0, 2)) || !d.Contains(addr(0, 3)) {
		t.Fatal("fill did not prefer the standby victim")
	}
}

// TestVictimIsLeastRecentlyUsedStandbyLine fills a 4-way drowsy set, lets
// every line decay, wakes two of them with slow hits and then misses: of
// the two lines still in standby, the least recently used one goes.
func TestVictimIsLeastRecentlyUsedStandbyLine(t *testing.T) {
	mem := cache.NewMemory(p70(), 100)
	cfg := cache.Config{Name: "dl1", SizeBytes: 4096, LineBytes: 64, Assoc: 4, HitLatency: 2}
	d := MustNew(p70(), cfg, DefaultParams(TechDrowsy, 4096), mem)
	for tag := uint64(1); tag <= 4; tag++ {
		d.Access(addr(0, tag), false, tag)
	}
	cyc := idle(d, 4, 4096)
	if d.StandbyNow() != 4 {
		t.Fatalf("%d lines in standby, want all 4", d.StandbyNow())
	}
	d.Access(addr(0, 1), false, cyc+1)
	d.Access(addr(0, 3), false, cyc+2)
	if d.Stats.SlowHits != 2 {
		t.Fatalf("slow hits = %d, want 2", d.Stats.SlowHits)
	}
	d.Access(addr(0, 5), false, cyc+3)
	if d.Contains(addr(0, 2)) {
		t.Fatal("tag 2, the least recently used standby line, was kept")
	}
	for _, tag := range []uint64{1, 3, 4, 5} {
		if !d.Contains(addr(0, tag)) {
			t.Fatalf("tag %d was evicted in place of tag 2", tag)
		}
	}
}

// TestUncontrolledMatchesPlainCache runs one seeded read/write stream
// through a TechNone DCache and a cache.Cache of the same geometry: the two
// replace by the same line store, so every latency, count and write-back
// must agree.
func TestUncontrolledMatchesPlainCache(t *testing.T) {
	for _, assoc := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("assoc%d", assoc), func(t *testing.T) {
			cfg := cache.Config{Name: "dl1", SizeBytes: 4096, LineBytes: 64, Assoc: assoc, HitLatency: 2}
			dmem, cmem := cache.NewMemory(p70(), 100), cache.NewMemory(p70(), 100)
			d := MustNew(p70(), cfg, DefaultParams(TechNone, 0), dmem)
			c := cache.MustNew(p70(), cfg, cmem)
			rng := stats.NewRNG(7 + uint64(assoc))
			for i := uint64(1); i <= 100_000; i++ {
				addr := uint64(rng.Intn(256)) * 64
				if rng.Bool(0.3) {
					addr = uint64(rng.Intn(32)) * 64 // hot subset
				}
				write := rng.Bool(0.3)
				if dl, cl := d.Access(addr, write, i), c.Access(addr, write, i); dl != cl {
					t.Fatalf("access %d (addr %#x): DCache latency %d, cache %d", i, addr, dl, cl)
				}
			}
			ds, cs := d.Stats, c.Stats
			if ds.Hits != cs.Hits || ds.Misses != cs.Misses || ds.Fills != cs.Fills || ds.EvictWritebacks != cs.Writebacks {
				t.Fatalf("counts diverged:\nDCache %+v\ncache  %+v", ds, cs)
			}
			if dmem.Stats != cmem.Stats {
				t.Fatalf("memory traffic diverged: DCache's %+v, cache's %+v", dmem.Stats, cmem.Stats)
			}
			if cs.Hits == 0 || cs.Misses == 0 || cs.Writebacks == 0 {
				t.Fatalf("degenerate stream: %+v", cs)
			}
		})
	}
}

func TestResetStatsKeepsState(t *testing.T) {
	d, _ := build(TechDrowsy, 4096)
	d.Access(addr(0, 1), false, 1)
	cyc := idle(d, 1, 4096)
	d.ResetStats(cyc)
	if d.Stats.Accesses != 0 || d.Energy.Total() != 0 {
		t.Fatal("ResetStats incomplete")
	}
	if !d.Contains(addr(0, 1)) {
		t.Fatal("ResetStats dropped contents")
	}
	// The line is still in standby; occupancy accrues from zero.
	d.Tick(cyc + 1000)
	d.Finish(cyc + 1000)
	if d.StandbyLineCycles() == 0 {
		t.Fatal("standby occupancy lost after reset")
	}
}

func TestTechniqueStringAndMode(t *testing.T) {
	if TechGated.String() != "gated-vss" || TechDrowsy.String() != "drowsy" {
		t.Fatal("technique strings")
	}
	if TechGated.StatePreserving() || !TechDrowsy.StatePreserving() || !TechRBB.StatePreserving() {
		t.Fatal("state-preserving flags")
	}
}

func TestDefaultParamsTable1(t *testing.T) {
	dr := DefaultParams(TechDrowsy, 4096)
	gt := DefaultParams(TechGated, 4096)
	// Paper Table 1: drowsy 3/3, gated 30/3.
	if dr.SettleSleep != 3 || dr.SettleWake != 3 {
		t.Fatalf("drowsy settle = %d/%d", dr.SettleSleep, dr.SettleWake)
	}
	if gt.SettleSleep != 30 || gt.SettleWake != 3 {
		t.Fatalf("gated settle = %d/%d", gt.SettleSleep, gt.SettleWake)
	}
	if !dr.DecayTags || !gt.DecayTags {
		t.Fatal("tags must decay by default for both techniques")
	}
	if dr.Policy != decay.PolicyNoAccess {
		t.Fatal("default policy must be noaccess")
	}
}

func TestRBBBehavesStatePreserving(t *testing.T) {
	d, _ := build(TechRBB, 4096)
	d.Access(addr(0, 1), false, 1)
	cyc := idle(d, 1, 4096)
	if !d.Contains(addr(0, 1)) {
		t.Fatal("RBB lost state")
	}
	lat := d.Access(addr(0, 1), false, cyc+1)
	if lat != 2+9 {
		t.Fatalf("RBB slow hit latency = %d, want 11", lat)
	}
}

func TestHitRateAndCounts(t *testing.T) {
	d, _ := build(TechGated, 0) // decay disabled
	d.Access(addr(0, 1), false, 1)
	d.Access(addr(0, 1), false, 2)
	d.Access(addr(1, 1), false, 3)
	if got := d.Stats.HitRate(); got < 0.32 || got > 0.34 {
		t.Fatalf("hit rate = %v, want 1/3", got)
	}
	if d.Lines() != 32 {
		t.Fatalf("Lines() = %d", d.Lines())
	}
}

type fixedAdapter struct{ iv uint64 }

func (a fixedAdapter) Recommend(uint64, Stats) uint64 { return a.iv }
func (a fixedAdapter) Every() uint64                  { return 1000 }

func TestAdapterReprogramsInterval(t *testing.T) {
	d, _ := build(TechGated, 4096)
	d.Adapter = fixedAdapter{iv: 1024}
	d.Tick(1)
	d.Tick(1001)
	if d.Machine.Interval() != 1024 {
		t.Fatalf("interval = %d after adapter, want 1024", d.Machine.Interval())
	}
	if d.AdaptChanges != 1 {
		t.Fatalf("AdaptChanges = %d", d.AdaptChanges)
	}
}

func TestSimplePolicyCache(t *testing.T) {
	mem := cache.NewMemory(p70(), 100)
	l2 := cache.MustNew(p70(), cache.Config{Name: "l2", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 2, HitLatency: 11}, mem)
	params := DefaultParams(TechDrowsy, 4096)
	params.Policy = decay.PolicySimple
	d := MustNew(p70(), smallCfg(), params, l2)
	// Keep touching one line every 100 cycles; the simple policy blankets
	// it anyway at each interval.
	for c := uint64(1); c < 10000; c += 100 {
		d.Access(addr(0, 1), false, c)
		d.Tick(c)
	}
	if d.Stats.SlowHits == 0 {
		t.Fatal("simple policy never put the hot line to sleep")
	}
}

func TestDrowsyTagsAwakeSkipsWakeStall(t *testing.T) {
	p := DefaultParams(TechDrowsy, 4096)
	p.DecayTags = false
	p.WakeLatency = 1
	d := buildParams(p)
	d.Access(addr(0, 1), false, 1)
	cyc := idle(d, 1, 4096)
	// Slow hit costs only the data wake.
	if lat := d.Access(addr(0, 1), false, cyc+1); lat != 2+1 {
		t.Fatalf("tags-awake slow hit latency = %d, want 3", lat)
	}
	cyc = idle(d, cyc+1, 4096)
	// True miss: tags are live, no wake stall.
	if lat := d.Access(addr(0, 2), false, cyc+1); lat != 2+11+100 {
		t.Fatalf("tags-awake true miss latency = %d, want 113", lat)
	}
	if d.Stats.TagWakeStalls != 0 {
		t.Fatal("tags-awake cache recorded tag-wake stalls")
	}
}

func TestInducedMissSemantics(t *testing.T) {
	// Every re-access of a decayed line is induced (only valid lines
	// decay, so the disconnected contents were live by construction) —
	// including after a refill-decay-reaccess cycle. An access to a tag
	// that was evicted outright is a true miss.
	d, _ := build(TechGated, 4096)
	d.Access(addr(0, 1), false, 1)
	cyc := idle(d, 1, 4096)
	d.Access(addr(0, 1), false, cyc+1) // induced #1 (refills in place)
	cyc = idle(d, cyc+1, 4096)
	d.Access(addr(0, 1), false, cyc+1) // induced #2 after refill+decay
	if d.Stats.InducedMisses != 2 {
		t.Fatalf("induced misses = %d, want 2", d.Stats.InducedMisses)
	}
	// Evict tag 1 with two fresh tags, then probe it: a true miss.
	d.Access(addr(0, 2), false, cyc+2)
	d.Access(addr(0, 3), false, cyc+3)
	before := d.Stats.InducedMisses
	d.Access(addr(0, 1), false, cyc+4)
	if d.Stats.InducedMisses != before {
		t.Fatal("evicted-tag re-access miscounted as induced")
	}
}

func TestWritesDirtyStandbyDrowsyVictimWritesBack(t *testing.T) {
	// A dirty drowsy line evicted from standby must be woken and written
	// back (energy) even though decay itself never writes back.
	d, l2 := build(TechDrowsy, 4096)
	d.Access(addr(0, 1), true, 1) // dirty
	cyc := idle(d, 1, 4096)
	l2w := l2.Stats.Accesses
	d.Access(addr(0, 2), false, cyc+1)
	d.Access(addr(0, 3), false, cyc+2) // evicts the dirty drowsy line
	if d.Stats.EvictWritebacks != 1 {
		t.Fatalf("evict writebacks = %d", d.Stats.EvictWritebacks)
	}
	if l2.Stats.Accesses <= l2w {
		t.Fatal("dirty drowsy victim never reached L2")
	}
}

func TestParamsValidate(t *testing.T) {
	for _, tq := range []Technique{TechNone, TechDrowsy, TechGated, TechRBB} {
		if err := DefaultParams(tq, 4096).Validate(); err != nil {
			t.Fatalf("default %s params invalid: %v", tq, err)
		}
	}
	cases := []Params{
		{Technique: Technique(99)},
		{Technique: TechDrowsy, Policy: decay.Policy(7)},
		{Technique: TechDrowsy, Interval: 2},
		{Technique: TechDrowsy, Interval: 4096, SettleSleep: -1},
		{Technique: TechDrowsy, Interval: 4096, WakeLatency: -3},
		{Technique: TechGated, PerLineAdaptive: true},
		// Per-line adaptive decay counts with the noaccess policy only.
		{Technique: TechGated, Interval: 1024, Policy: decay.PolicySimple, PerLineAdaptive: true},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v) validated", i, p)
		}
	}
	if _, err := New(p70(), smallCfg(), Params{Technique: Technique(99)}, nil); err == nil {
		t.Fatal("New accepted invalid params")
	}
}
