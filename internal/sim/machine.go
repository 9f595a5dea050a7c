package sim

import (
	"fmt"

	"hotleakage/internal/cache"
	"hotleakage/internal/cpu"
	"hotleakage/internal/energy"
	"hotleakage/internal/leakctl"
)

// machine is one assembled simulation stack: the memory hierarchy and the
// core. Its stream (and the predictor that runs ahead over it) is the
// group's shared front, attached per run.
type machine struct {
	mem      *cache.Memory
	l2       *cache.Cache
	dl1      *leakctl.DCache
	il1Plain *cache.Cache
	il1Ctl   *leakctl.DCache
	core     *cpu.Core
}

// buildMachine constructs a fresh stack for one lane.
func buildMachine(mc MachineConfig, params leakctl.Params, adapter leakctl.Adapter) (machine, error) {
	var m machine
	m.mem = cache.NewMemory(mc.Tech, mc.MemLatency)
	var err error
	m.l2, err = cache.New(mc.Tech, mc.L2, m.mem)
	if err != nil {
		return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	m.dl1, err = leakctl.New(mc.Tech, mc.L1D, params, m.l2)
	if err != nil {
		return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if adapter != nil {
		m.dl1.Adapter = adapter
	}

	// The I-cache is plain unless the extension study controls it too.
	var l1i cpu.FetchCache
	if mc.IL1Control != nil {
		m.il1Ctl, err = leakctl.New(mc.Tech, mc.L1I, *mc.IL1Control, m.l2)
		if err != nil {
			return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		l1i = m.il1Ctl
	} else {
		m.il1Plain, err = cache.New(mc.Tech, mc.L1I, m.l2)
		if err != nil {
			return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		l1i = m.il1Plain
	}

	m.core = cpu.New(mc.CPU, nil, nil, l1i, m.dl1)
	return m, nil
}

// flush adds the machine's counters since the last flush to the shared
// obs counters.
func (m machine) flush() {
	m.core.ObsFlush()
	m.dl1.ObsFlush()
	m.l2.ObsFlush()
	if m.il1Ctl != nil {
		m.il1Ctl.ObsFlush()
	} else {
		m.il1Plain.ObsFlush()
	}
}

// resetStats is the warm-up boundary: every counter restarts, while the
// caches, decay state, predictor and in-flight window carry on.
func (m machine) resetStats() {
	now := m.core.Now()
	m.core.ResetStats()
	m.l2.ResetStats()
	m.mem.ResetStats()
	m.dl1.ResetStats(now)
	if m.il1Ctl != nil {
		m.il1Ctl.ResetStats(now)
	} else {
		m.il1Plain.ResetStats()
	}
}

// result closes the run's books at the current cycle and assembles its
// RunResult from the measured window's counters cs.
func (m machine) result(mc MachineConfig, name string, params leakctl.Params, cs cpu.Stats) RunResult {
	now := m.core.Now()
	m.dl1.Finish(now)
	icDynJ, icStats := 0.0, cache.Stats{}
	if m.il1Ctl != nil {
		m.il1Ctl.Finish(now)
		icDynJ = m.il1Ctl.Energy.Total()
		icStats = cache.Stats{
			Accesses: m.il1Ctl.Stats.Accesses,
			Hits:     m.il1Ctl.Stats.Hits + m.il1Ctl.Stats.SlowHits,
			Misses:   m.il1Ctl.Stats.Misses,
		}
	} else {
		icDynJ, icStats = m.il1Plain.DynJ, m.il1Plain.Stats
	}
	meas := energy.RunMeasurement{
		Cycles:            cs.Cycles,
		Instructions:      cs.Instructions,
		StandbyLineCycles: m.dl1.StandbyLineCycles(),
		DCacheDynJ:        m.dl1.Energy.Total(),
		L2DynJ:            m.l2.DynJ,
		MemDynJ:           m.mem.DynJ,
		ICacheDynJ:        icDynJ,
		// Per-cycle background: D-cache periphery clock plus the
		// whole-chip background dynamic power (cost item #4 — what
		// makes extra runtime expensive).
		ClockJ: float64(cs.Cycles) * (m.dl1.AccessE.PerCycleClock +
			mc.Tech.ChipBackgroundW/mc.Tech.ClockHz),
		DStats: m.dl1.Stats,
	}
	res := RunResult{
		Bench:       name,
		Params:      params,
		CPU:         cs,
		DStats:      m.dl1.Stats,
		L2Stats:     m.l2.Stats,
		ICStats:     icStats,
		Bpred:       m.core.BP,
		TurnoffRat:  m.dl1.TurnoffRatio(),
		Measurement: meas,
	}
	if m.il1Ctl != nil {
		im := meas
		im.StandbyLineCycles = m.il1Ctl.StandbyLineCycles()
		im.DStats = m.il1Ctl.Stats
		res.IL1Meas = &im
		st := m.il1Ctl.Stats
		res.IL1Stats = &st
		res.IL1Turnoff = m.il1Ctl.TurnoffRatio()
	}
	return res
}
