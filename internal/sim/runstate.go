package sim

import (
	"fmt"

	"hotleakage/internal/cache"
	"hotleakage/internal/cpu"
	"hotleakage/internal/energy"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
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

// RunState is a worker-confined cache of simulation components reused
// across runs: the L2's megabyte of line bookkeeping and the core's window
// arrays. Each component is reset to its
// just-constructed state between runs (see the Reset methods in cache,
// leakctl, bpred and cpu.Recycle), so a reused machine is bit-identical
// to a freshly built one — the reuse only removes the allocations, which
// at GOMAXPROCS-sized worker pools were the dominant GC pressure of a
// sweep.
//
// The zero value is ready to use. A RunState must not be shared between
// concurrently executing runs; each lane of a BatchState has its own.
type RunState struct {
	mc    MachineConfig
	m     machine
	valid bool
}

// machineEqual reports whether two machine descriptions build identical
// hardware (every configuration struct is all-scalar, so value comparison
// is exact). Warmup/Instructions are excluded: they shape the run, not the
// components.
func machineEqual(a, b MachineConfig) bool {
	if a.Tech == nil || b.Tech == nil || *a.Tech != *b.Tech {
		return false
	}
	if a.CPU != b.CPU ||
		a.L1I != b.L1I || a.L1D != b.L1D || a.L2 != b.L2 ||
		a.MemLatency != b.MemLatency {
		return false
	}
	if (a.IL1Control == nil) != (b.IL1Control == nil) {
		return false
	}
	if a.IL1Control != nil && *a.IL1Control != *b.IL1Control {
		return false
	}
	return true
}

// assemble builds (or, via st, reuses) the simulation stack for one run.
// mc and params have already been validated by the caller.
func assemble(mc MachineConfig, params leakctl.Params, adapter leakctl.Adapter, st *RunState) (machine, error) {
	if st != nil && st.valid && machineEqual(st.mc, mc) {
		if m, err := st.reuse(mc, params, adapter); err == nil {
			return m, nil
		}
		// A failed reset (e.g. params rejected mid-reset) leaves partially
		// reset components; invalidate and fall through to a fresh build.
		st.valid = false
	}
	m, err := buildMachine(mc, params, adapter)
	if err != nil {
		return machine{}, err
	}
	if st != nil {
		st.mc = mc
		st.m = m
		st.valid = true
	}
	return m, nil
}

// buildMachine constructs a fresh stack.
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

// reuse resets every cached component to its just-built state and rewires
// it for the new run.
func (st *RunState) reuse(mc MachineConfig, params leakctl.Params, adapter leakctl.Adapter) (machine, error) {
	m := st.m
	m.mem.Reset()
	m.l2.Reset(m.mem)
	if err := m.dl1.Reset(mc.Tech, params, m.l2); err != nil {
		return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	if adapter != nil {
		m.dl1.Adapter = adapter
	}
	var l1i cpu.FetchCache
	if mc.IL1Control != nil {
		if err := m.il1Ctl.Reset(mc.Tech, *mc.IL1Control, m.l2); err != nil {
			return machine{}, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		l1i = m.il1Ctl
	} else {
		m.il1Plain.Reset(m.l2)
		l1i = m.il1Plain
	}
	m.core = cpu.Recycle(m.core, mc.CPU, nil, nil, l1i, m.dl1)
	st.m = m
	return m, nil
}

// flush adds the machine's counters since the last flush to sh.
func (m machine) flush(sh *obs.Shard) {
	m.core.ObsFlush(sh)
	m.dl1.ObsFlush(sh)
	m.l2.ObsFlush(sh)
	if m.il1Ctl != nil {
		m.il1Ctl.ObsFlush(sh)
	} else {
		m.il1Plain.ObsFlush(sh)
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
