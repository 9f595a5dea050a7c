package cpu

import "hotleakage/internal/obs"

// Core-level counters in the process-wide registry. Flushed as batched
// deltas from Stats at sim's chunk boundaries — never from the cycle loop.
var (
	obsCycles     = obs.Default.Counter("sim_cycles_total")
	obsInstr      = obs.Default.Counter(obs.MetricInstructions)
	obsLoads      = obs.Default.Counter("sim_loads_total")
	obsStores     = obs.Default.Counter("sim_stores_total")
	obsBranches   = obs.Default.Counter("sim_branches_total")
	obsMispred    = obs.Default.Counter("sim_mispredicts_total")
	obsFetchStall = obs.Default.Counter("sim_fetch_stall_cycles_total")

	// Sampled per-stage wall-clock attribution (see stageSampleMask in
	// cpu.go): ns spent in each pipeline stage on the 1-in-1024 sampled
	// cycles, plus the sampled-cycle count to normalize by. ns-per-sampled-
	// cycle per stage is the backend's live self-profile — the same
	// breakdown a pprof run gives, but always on and essentially free.
	obsStageNS = [numStage]*obs.Counter{
		stageTick:     obs.Default.Counter("sim_stage_tick_ns_total"),
		stageCommit:   obs.Default.Counter("sim_stage_commit_ns_total"),
		stageIssue:    obs.Default.Counter("sim_stage_issue_ns_total"),
		stageDispatch: obs.Default.Counter("sim_stage_dispatch_ns_total"),
		stageFetch:    obs.Default.Counter("sim_stage_fetch_ns_total"),
	}
	obsStageSampled = obs.Default.Counter("sim_stage_sampled_cycles_total")
)

// ObsFlush adds the Stats delta since the previous flush to the shared
// counters. The caller (sim's run loop) invokes it between simulation
// chunks, so the core's hot paths never see an atomic.
func (c *Core) ObsFlush() {
	cur, prev := c.Stats, c.obsPrev
	obsCycles.Add(obs.Delta(cur.Cycles, prev.Cycles))
	obsInstr.Add(obs.Delta(cur.Instructions, prev.Instructions))
	obsLoads.Add(obs.Delta(cur.Loads, prev.Loads))
	obsStores.Add(obs.Delta(cur.Stores, prev.Stores))
	obsBranches.Add(obs.Delta(cur.Branches, prev.Branches))
	obsMispred.Add(obs.Delta(cur.Mispredicts, prev.Mispredicts))
	obsFetchStall.Add(obs.Delta(cur.FetchStallCy, prev.FetchStallCy))
	c.obsPrev = cur
	for i := range c.stageNS {
		obsStageNS[i].Add(obs.Delta(c.stageNS[i], c.obsPrevStage[i]))
		c.obsPrevStage[i] = c.stageNS[i]
	}
	obsStageSampled.Add(obs.Delta(c.stageSampled, c.obsPrevSamp))
	c.obsPrevSamp = c.stageSampled
}
