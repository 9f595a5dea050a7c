package cpu

import (
	"testing"

	"hotleakage/internal/bpred"
	"hotleakage/internal/cache"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/tech"
	"hotleakage/internal/workload"
)

func p70() *tech.Params { return tech.MustByNode(tech.Node70) }

// machine assembles a core over the standard small hierarchy for a profile.
func machine(prof workload.Profile) *Core {
	mem := cache.NewMemory(p70(), 100)
	l2 := cache.MustNew(p70(), cache.Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64, Assoc: 2, HitLatency: 11, Banks: 8}, mem)
	l1i := cache.MustNew(p70(), cache.Config{Name: "il1", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1}, l2)
	dl1 := leakctl.MustNew(p70(), cache.Config{Name: "dl1", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 2}, leakctl.DefaultParams(leakctl.TechNone, 0), l2)
	return New(DefaultConfig(), workload.NewGenerator(prof), bpred.New(bpred.DefaultConfig()), l1i, dl1)
}

// alu returns a pure-ALU profile with given dependence tightness.
func alu(depP, depNone float64) workload.Profile {
	return workload.Profile{
		Name: "alu", DepP: depP, DepNoneFrac: depNone,
		HotLines: 16, HotZipf: 0.5, PHot: 1,
		CodeBlocks: 48, BlockLen: 6, RegionBlocks: 12,
		TripMean: 20, MajorityProb: 0.99, CodeZipf: 0.8,
		Seed: 7,
	}
}

func TestIPCBounded(t *testing.T) {
	c := machine(alu(0.3, 0.4))
	s := c.Run(50_000)
	if ipc := s.IPC(); ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC = %v, must be in (0, 4]", ipc)
	}
}

func TestIndependentCodeFasterThanChained(t *testing.T) {
	// Loose dependences must yield clearly higher IPC than a tight
	// serial chain: this is the ILP the paper relies on to hide induced
	// misses.
	loose := machine(alu(0.2, 0.7)).Run(50_000).IPC()
	tight := machine(alu(0.95, 0.0)).Run(50_000).IPC()
	if loose < 1.5*tight {
		t.Fatalf("ILP not expressed: loose IPC %v vs tight %v", loose, tight)
	}
	if tight > 1.35 {
		t.Fatalf("fully serial chain IPC %v too high", tight)
	}
}

func TestMemoryLatencyHurts(t *testing.T) {
	prof := alu(0.4, 0.3)
	prof.LoadFrac = 0.3
	prof.PHot = 0.5
	prof.FarLines = 8192
	prof.FarZipf = 0.1
	prof.PFar = 0.5 // miss-heavy
	slow := machine(prof).Run(50_000).IPC()
	prof.PFar = 0
	prof.PHot = 1
	fast := machine(prof).Run(50_000).IPC()
	if fast <= slow {
		t.Fatalf("cache misses did not reduce IPC: %v vs %v", fast, slow)
	}
}

func TestMispredictsReduceIPC(t *testing.T) {
	good := alu(0.3, 0.4)
	good.LoadFrac = 0.1
	bad := good
	bad.FlakyFrac = 0.6
	bad.MajorityProb = 0.6
	gi := machine(good).Run(50_000)
	bi := machine(bad).Run(50_000)
	if bi.Mispredicts <= gi.Mispredicts {
		t.Fatalf("flaky profile mispredicted less: %d vs %d", bi.Mispredicts, gi.Mispredicts)
	}
	if bi.IPC() >= gi.IPC() {
		t.Fatalf("mispredicts did not reduce IPC: %v vs %v", bi.IPC(), gi.IPC())
	}
}

func TestStatsConsistency(t *testing.T) {
	c := machine(alu(0.3, 0.4))
	s := c.Run(30_000)
	if s.Instructions < 30_000 {
		t.Fatalf("committed %d < requested", s.Instructions)
	}
	if s.Cycles == 0 || s.Branches == 0 {
		t.Fatalf("degenerate stats: %+v", s)
	}
	if s.Mispredicts > s.Branches {
		t.Fatal("more mispredicts than branches")
	}
}

func TestWarmupResetContinues(t *testing.T) {
	c := machine(alu(0.3, 0.4))
	c.Run(10_000)
	mid := c.Now()
	c.ResetStats()
	s := c.Run(10_000)
	// Commit retires up to CommitWidth per cycle, so the target may be
	// overshot by at most width-1.
	if s.Instructions < 10_000 || s.Instructions > 10_003 {
		t.Fatalf("post-reset instructions = %d", s.Instructions)
	}
	if c.Now() <= mid {
		t.Fatal("cycle counter restarted")
	}
	if s.Cycles >= c.Now() {
		t.Fatal("post-reset cycles include warmup")
	}
}

func TestLoadsAndStoresCounted(t *testing.T) {
	prof := alu(0.3, 0.4)
	prof.LoadFrac = 0.2
	prof.StoreFrac = 0.1
	s := machine(prof).Run(30_000)
	if s.Loads == 0 || s.Stores == 0 {
		t.Fatalf("mem ops not counted: %+v", s)
	}
	ratio := float64(s.Loads) / float64(s.Stores)
	if ratio < 1.2 || ratio > 3.5 {
		t.Fatalf("load/store ratio %v far from 2", ratio)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := machine(alu(0.3, 0.4)).Run(20_000)
	b := machine(alu(0.3, 0.4)).Run(20_000)
	if a != b {
		t.Fatalf("identical machines diverged:\n%+v\n%+v", a, b)
	}
}

func TestDCacheSeesAccesses(t *testing.T) {
	prof := alu(0.3, 0.4)
	prof.LoadFrac = 0.25
	prof.StoreFrac = 0.1
	c := machine(prof)
	c.Run(30_000)
	if c.DCache.Stats.Accesses == 0 {
		t.Fatal("no D-cache traffic")
	}
	got := float64(c.DCache.Stats.Accesses) / float64(c.Stats.Instructions)
	if got < 0.2 || got > 0.45 {
		t.Fatalf("mem refs per instruction = %v, want ~0.3", got)
	}
}

func TestMSHRLimitThrottlesMisses(t *testing.T) {
	// A miss-heavy stream with a single MSHR must run slower than with
	// the default eight (misses serialize).
	prof := alu(0.2, 0.6)
	prof.LoadFrac = 0.35
	prof.PHot = 0.3
	prof.FarLines = 8192
	prof.FarZipf = 0.1
	prof.PFar = 0.7

	run := func(mshrs int) float64 {
		mem := cache.NewMemory(p70(), 100)
		l2 := cache.MustNew(p70(), cache.Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64, Assoc: 2, HitLatency: 11, Banks: 8}, mem)
		l1i := cache.MustNew(p70(), cache.Config{Name: "il1", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1}, l2)
		dl1 := leakctl.MustNew(p70(), cache.Config{Name: "dl1", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 2}, leakctl.DefaultParams(leakctl.TechNone, 0), l2)
		cfg := DefaultConfig()
		cfg.MSHRs = mshrs
		c := New(cfg, workload.NewGenerator(prof), bpred.New(bpred.DefaultConfig()), l1i, dl1)
		return c.Run(30_000).IPC()
	}
	one := run(1)
	eight := run(8)
	if eight <= one {
		t.Fatalf("more MSHRs did not help a miss-heavy stream: 1->%.3f, 8->%.3f", one, eight)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Each case is a config that can never commit its run: a zero-wide
	// stage, an empty window, a scheduler that examines no entry, or an
	// op class with no unit to issue on (gap, twolf and vpr emit FP ops).
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero issue width", func(c *Config) { c.IssueWidth = 0 }},
		{"zero RUU", func(c *Config) { c.RUUSize = 0 }},
		{"negative MSHRs", func(c *Config) { c.MSHRs = -1 }},
		{"zero scan limit", func(c *Config) { c.ScanLimit = 0 }},
		{"negative scan limit", func(c *Config) { c.ScanLimit = -1 }},
		{"zero int ALUs", func(c *Config) { c.IntALUs = 0 }},
		{"zero int mul/div", func(c *Config) { c.IntMulDivs = 0 }},
		{"zero FP ALUs", func(c *Config) { c.FPALUs = 0 }},
		{"zero FP mul/div", func(c *Config) { c.FPMulDivs = 0 }},
		{"zero memory ports", func(c *Config) { c.MemPorts = 0 }},
	} {
		bad := DefaultConfig()
		tc.mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s validated", tc.name)
		}
	}
	ok := DefaultConfig()
	ok.ScanLimit, ok.MSHRs = 1, 0
	if err := ok.Validate(); err != nil {
		t.Fatalf("scan limit 1 with unlimited MSHRs rejected: %v", err)
	}
}
