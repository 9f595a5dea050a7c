package cpu

import (
	"testing"

	"hotleakage/internal/bpred"
	"hotleakage/internal/cache"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// buildWith assembles a core with a custom core config and D-cache leakage
// parameters, so the fast-forward tests can force tiny windows, single
// MSHRs and short decay intervals. A non-nil icParams controls the
// I-cache with those parameters; nil leaves it plain.
func buildWith(prof workload.Profile, cfg Config, params leakctl.Params, icParams *leakctl.Params) *Core {
	mem := cache.NewMemory(p70(), 100)
	l2 := cache.MustNew(p70(), cache.Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64, Assoc: 2, HitLatency: 11, Banks: 8}, mem)
	icCfg := cache.Config{Name: "il1", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1}
	var l1i FetchCache = cache.MustNew(p70(), icCfg, l2)
	if icParams != nil {
		l1i = leakctl.MustNew(p70(), icCfg, *icParams, l2)
	}
	dl1 := leakctl.MustNew(p70(), cache.Config{Name: "dl1", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 2}, params, l2)
	return New(cfg, workload.NewGenerator(prof), bpred.New(bpred.DefaultConfig()), l1i, dl1)
}

// missHeavy returns a load-heavy profile with a large far pool so the
// D-cache misses constantly and long stalls (fast-forward opportunities)
// are plentiful.
func missHeavy() workload.Profile {
	prof := alu(0.2, 0.6)
	prof.LoadFrac = 0.35
	prof.StoreFrac = 0.1
	prof.PHot = 0.3
	prof.FarLines = 8192
	prof.FarZipf = 0.1
	prof.PFar = 0.7
	return prof
}

// assertIdentical runs the same configuration with the event-driven loop
// and with the strict cycle-by-cycle reference and requires every
// architectural statistic — core counters, cycle count, D-cache stats,
// energy tallies and standby occupancy, and a controlled I-cache's — to
// match bit for bit.
func assertIdentical(t *testing.T, prof workload.Profile, cfg Config, params leakctl.Params, icParams *leakctl.Params, warmup, n uint64) {
	t.Helper()
	run := func(disable bool) (*Core, Stats) {
		c := buildWith(prof, cfg, params, icParams)
		c.DisableFastForward = disable
		if warmup > 0 {
			c.Run(warmup)
			c.ResetStats()
		}
		s := c.Run(n)
		c.DCache.Finish(c.Now())
		if icParams != nil {
			c.ICache.(*leakctl.DCache).Finish(c.Now())
		}
		return c, s
	}
	cFast, sFast := run(false)
	cRef, sRef := run(true)
	if sFast != sRef {
		t.Fatalf("core stats diverged:\nfast %+v\nref  %+v", sFast, sRef)
	}
	if cFast.Now() != cRef.Now() {
		t.Fatalf("cycle counters diverged: fast %d, ref %d", cFast.Now(), cRef.Now())
	}
	if cFast.DCache.Stats != cRef.DCache.Stats {
		t.Fatalf("D-cache stats diverged:\nfast %+v\nref  %+v", cFast.DCache.Stats, cRef.DCache.Stats)
	}
	if cFast.DCache.Energy != cRef.DCache.Energy {
		t.Fatalf("D-cache energy diverged:\nfast %+v\nref  %+v", cFast.DCache.Energy, cRef.DCache.Energy)
	}
	if f, r := cFast.DCache.StandbyLineCycles(), cRef.DCache.StandbyLineCycles(); f != r {
		t.Fatalf("D-cache standby line-cycles diverged: fast %d, ref %d", f, r)
	}
	if icParams == nil {
		return
	}
	icFast, icRef := cFast.ICache.(*leakctl.DCache), cRef.ICache.(*leakctl.DCache)
	if icFast.Stats != icRef.Stats {
		t.Fatalf("I-cache stats diverged:\nfast %+v\nref  %+v", icFast.Stats, icRef.Stats)
	}
	if icFast.Energy != icRef.Energy {
		t.Fatalf("I-cache energy diverged:\nfast %+v\nref  %+v", icFast.Energy, icRef.Energy)
	}
	if f, r := icFast.StandbyLineCycles(), icRef.StandbyLineCycles(); f != r {
		t.Fatalf("I-cache standby line-cycles diverged: fast %d, ref %d", f, r)
	}
	if icFast.Stats.SleepTransitions == 0 {
		t.Fatal("the controlled I-cache never entered standby: the test exercises no I-cache tick event")
	}
}

// TestFastForwardIdentityDefault covers the plain configuration: no
// leakage control, default window sizes.
func TestFastForwardIdentityDefault(t *testing.T) {
	assertIdentical(t, missHeavy(), DefaultConfig(),
		leakctl.DefaultParams(leakctl.TechNone, 0), nil, 0, 30_000)
}

// TestFastForwardIdentityWindowFull forces a tiny RUU and LSQ so dispatch
// stalls on a full window while long-latency misses drain — the stall
// cycles must be replayed exactly.
func TestFastForwardIdentityWindowFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RUUSize = 8
	cfg.LSQSize = 4
	assertIdentical(t, missHeavy(), cfg,
		leakctl.DefaultParams(leakctl.TechNone, 0), nil, 0, 20_000)
}

// TestFastForwardIdentityMSHRExhaustion pins a single MSHR under a
// miss-heavy stream: loads repeatedly find every miss slot busy, and the
// slot-release events must bound each fast-forward jump.
func TestFastForwardIdentityMSHRExhaustion(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSHRs = 1
	assertIdentical(t, missHeavy(), cfg,
		leakctl.DefaultParams(leakctl.TechNone, 0), nil, 0, 20_000)
}

// TestFastForwardIdentityDecayRollover runs a gated D-cache with a decay
// interval short enough that rollovers land inside would-be idle regions;
// the jump must stop at each rollover so expiries happen on the exact
// reference cycle.
func TestFastForwardIdentityDecayRollover(t *testing.T) {
	assertIdentical(t, missHeavy(), DefaultConfig(),
		leakctl.DefaultParams(leakctl.TechGated, 2048), nil, 0, 30_000)
}

// TestFastForwardIdentityDrowsyRollover repeats the rollover test for the
// state-preserving technique, whose wake latencies perturb timing
// differently.
func TestFastForwardIdentityDrowsyRollover(t *testing.T) {
	assertIdentical(t, missHeavy(), DefaultConfig(),
		leakctl.DefaultParams(leakctl.TechDrowsy, 2048), nil, 0, 30_000)
}

// TestFastForwardIdentityWarmupReset exercises the warmup -> ResetStats ->
// measure boundary: the reset lands mid-simulation, possibly adjacent to a
// skipped region, and the measured phase must still match the reference.
func TestFastForwardIdentityWarmupReset(t *testing.T) {
	assertIdentical(t, missHeavy(), DefaultConfig(),
		leakctl.DefaultParams(leakctl.TechGated, 2048), nil, 10_000, 20_000)
}

// TestFastForwardIdentityControlledICache controls the I-cache alone, so
// its decay rollovers (its NextTickEvent) are the only tick events that
// must bound a jump, for both techniques.
func TestFastForwardIdentityControlledICache(t *testing.T) {
	for _, tech := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
		t.Run(tech.String(), func(t *testing.T) {
			ic := leakctl.DefaultParams(tech, 1024)
			assertIdentical(t, missHeavy(), DefaultConfig(),
				leakctl.DefaultParams(leakctl.TechNone, 0), &ic, 0, 40_000)
		})
	}
}

// TestChunkedRunBitIdentity runs one core to 200k instructions in 50k
// chunks and another in a single call: the chunk boundaries (each Run
// entry re-derives the cached tick schedules) must not perturb any
// statistic.
func TestChunkedRunBitIdentity(t *testing.T) {
	prof := missHeavy()
	params := leakctl.DefaultParams(leakctl.TechGated, 2048)
	chunked := buildWith(prof, DefaultConfig(), params, nil)
	var sChunk Stats
	for i := 0; i < 4; i++ {
		sChunk = chunked.Run(50_000)
	}
	whole := buildWith(prof, DefaultConfig(), params, nil)
	sWhole := whole.Run(200_000)
	// Commit can overshoot a chunk target by up to CommitWidth-1, so the
	// chunked run may retire a handful more instructions; its final chunk
	// still ends on the same cycle only when the totals agree. Compare
	// against a whole run of the chunked run's actual total.
	if sChunk.Instructions != sWhole.Instructions {
		whole = buildWith(prof, DefaultConfig(), params, nil)
		sWhole = whole.Run(sChunk.Instructions)
	}
	if sChunk != sWhole {
		t.Fatalf("chunked run diverged:\nchunked %+v\nwhole   %+v", sChunk, sWhole)
	}
	if chunked.Now() != whole.Now() {
		t.Fatalf("cycle counters diverged: chunked %d, whole %d", chunked.Now(), whole.Now())
	}
	if chunked.DCache.Stats != whole.DCache.Stats {
		t.Fatalf("D-cache stats diverged:\nchunked %+v\nwhole   %+v", chunked.DCache.Stats, whole.DCache.Stats)
	}
}

// TestFetchRingWrap shrinks the fetch buffer (FetchWidth 1 gives the
// smallest power-of-two ring) and runs long enough for the head index to
// lap the buffer many times.
func TestFetchRingWrap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FetchWidth = 1
	cfg.DecodeWidth = 1
	assertIdentical(t, alu(0.3, 0.4), cfg,
		leakctl.DefaultParams(leakctl.TechNone, 0), nil, 0, 10_000)
}
