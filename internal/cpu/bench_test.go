package cpu

import (
	"testing"

	"hotleakage/internal/bpred"
	"hotleakage/internal/cache"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// BenchmarkCoreRun times the backend alone: steady-state Core.Run of a
// Table 2 core over a front filled once, before the timer starts, so
// neither the generator nor the predictor nor any allocation is in what
// it times. Each iteration builds the hierarchy and the core with New,
// runs a warm-up outside the timer and then times coreRunInstr commits of
// gcc under gated-Vss at the paper's 4096-cycle interval. It reports ns
// per committed instruction, the unit branch-level changes to the core
// are judged in (`make profile` profiles it).
func BenchmarkCoreRun(b *testing.B) {
	const (
		warm         = 20_000
		coreRunInstr = 100_000
	)
	prof, _ := workload.ByName("gcc")
	cfg := DefaultConfig()
	params := leakctl.DefaultParams(leakctl.TechGated, 4096)
	var front Front
	front.Fill(workload.NewGenerator(prof), bpred.New(bpred.DefaultConfig()),
		uint64(warm+coreRunInstr+2*(cfg.RUUSize+3*cfg.FetchWidth+cfg.CommitWidth)))

	committed := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mem := cache.NewMemory(p70(), 100)
		l2 := cache.MustNew(p70(), cache.Config{Name: "l2", SizeBytes: 2 << 20, LineBytes: 64, Assoc: 2, HitLatency: 11, Banks: 8}, mem)
		l1i := cache.MustNew(p70(), cache.Config{Name: "il1", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 1}, l2)
		dl1 := leakctl.MustNew(p70(), cache.Config{Name: "dl1", SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, HitLatency: 2}, params, l2)
		c := New(cfg, nil, nil, l1i, dl1)
		c.AttachFront(&front)
		c.Run(warm)
		before := c.Stats.Instructions
		b.StartTimer()
		c.Run(coreRunInstr)
		committed += c.Stats.Instructions - before
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(committed), "ns/instr")
}
