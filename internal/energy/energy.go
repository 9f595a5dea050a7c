// Package energy implements the paper's evaluation metric (Section 2.3 and
// 5.1): the *net* cache-leakage savings of a leakage-control technique,
// computed as the gross leakage saved by keeping lines in standby minus the
// four itemized costs:
//
//  1. dynamic power of the extra hardware (decay counters),
//  2. leakage power of the extra hardware,
//  3. dynamic power of mode transitions,
//  4. dynamic power of extra execution time — including extra L2 accesses
//     (gated-Vss), extra tag accesses (drowsy) and the longer runtime.
//
// Leakage powers come from the HotLeakage model (package leakage) at the
// requested operating point; dynamic energies are accumulated during
// simulation in joules and are temperature-independent, so one timing run
// can be evaluated at several temperatures.
package energy

import (
	"errors"
	"fmt"

	"hotleakage/internal/cache"
	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
)

// ErrDegenerate reports a comparison whose inputs cannot be scored: a run
// that committed zero instructions or zero cycles (e.g. a cancelled-then-
// resumed cell), or a non-positive clock. Scoring such a run would put
// NaN/Inf percentages into figures and stored results; callers get a typed
// error to test with errors.Is instead.
var ErrDegenerate = errors.New("energy: degenerate comparison input")

// CacheLeakProfile is the leakage-power decomposition of one cache at one
// operating point, derived from the HotLeakage model and the cache
// geometry. All powers in watts.
type CacheLeakProfile struct {
	// LineActive is the leakage power of one line (data + tag cells) at
	// full rail.
	LineActive float64
	// LineStandby is the same line's power in the technique's standby
	// mode.
	LineStandby float64
	// Edge is the always-on periphery (decoders, drivers, sense amps).
	Edge float64
	// CtlHardware is the leakage of the decay hardware itself (per-line
	// 2-bit counters and comparators) — the paper's cost item #2.
	CtlHardware float64
	// Lines is the number of controlled lines.
	Lines int
}

// TotalActive returns the cache's leakage power with every line active and
// no control hardware (the baseline cache).
func (p CacheLeakProfile) TotalActive() float64 {
	return float64(p.Lines)*p.LineActive + p.Edge
}

// tagCellsPerLine approximates the tag-array bits per line (address tag
// plus valid/dirty/LRU state), chosen so tags land in the paper's "5-10% of
// the leakage energy in caches" band.
func tagCellsPerLine(cfg cache.Config) int {
	return cfg.Geometry().TagBits
}

// NewCacheLeakProfile derives the leakage profile for cfg under the given
// standby mode at the model's current environment. Pass
// leakage.ModeActive for a baseline profile (LineStandby == LineActive,
// CtlHardware == 0). Tags are assumed to decay with the line (the paper's
// default); use NewCacheLeakProfileTags for the tags-awake variant of
// Section 5.3.
func NewCacheLeakProfile(m *leakage.Model, cfg cache.Config, mode leakage.Mode) CacheLeakProfile {
	return NewCacheLeakProfileTags(m, cfg, mode, true)
}

// NewCacheLeakProfileTags is NewCacheLeakProfile with explicit control over
// whether the tag array decays with the data. With decayTags false the tag
// cells stay at active leakage in standby — "this leakage energy can no
// longer be reclaimed" (Section 5.3).
func NewCacheLeakProfileTags(m *leakage.Model, cfg cache.Config, mode leakage.Mode, decayTags bool) CacheLeakProfile {
	lines := cfg.Sets() * cfg.Assoc
	dataCells := cfg.LineBytes * 8
	tagCells := tagCellsPerLine(cfg)

	cellActive := m.CellPower(leakage.SRAM6T, leakage.ModeActive)
	cellStandby := m.CellPower(leakage.SRAM6T, mode)
	lineActive := cellActive * float64(dataCells+tagCells)
	lineStandby := cellStandby * float64(dataCells+tagCells)
	if !decayTags {
		lineStandby = cellStandby*float64(dataCells) + cellActive*float64(tagCells)
	}

	// Periphery: a row decoder gate and wide wordline driver per set,
	// and a sense amplifier plus precharge/write driver per column.
	sets := cfg.Sets()
	columns := (dataCells + tagCells) * cfg.Assoc
	edge := m.StructurePower(leakage.DecoderNAND, sets, leakage.ModeActive) +
		m.StructurePower(leakage.InverterDriver, sets, leakage.ModeActive) +
		m.StructurePower(leakage.SenseAmp, columns, leakage.ModeActive) +
		m.StructurePower(leakage.InverterDriver, columns/4, leakage.ModeActive)

	ctl := 0.0
	if mode != leakage.ModeActive {
		// Two-bit counter + compare/reset logic per line: ~5 small
		// logic cells.
		ctlCell := leakage.Cell{Name: "decay-ctr", NN: 10, NP: 10, WLn: 1.5, WLp: 2.1, GateN: 2, GateP: 2, Class: leakage.ClassLogic}
		ctl = m.StructurePower(ctlCell, lines, leakage.ModeActive)
	}

	return CacheLeakProfile{
		LineActive:  lineActive,
		LineStandby: lineStandby,
		Edge:        edge,
		CtlHardware: ctl,
		Lines:       lines,
	}
}

// RunMeasurement captures everything temperature-independent from one
// simulation run.
type RunMeasurement struct {
	Cycles            uint64
	Instructions      uint64
	StandbyLineCycles uint64

	// Dynamic energies in joules, accumulated during simulation.
	DCacheDynJ float64 // accesses, counters, transitions, writeback reads
	L2DynJ     float64
	MemDynJ    float64
	ICacheDynJ float64
	ClockJ     float64 // D-cache periphery clock: cycles * PerCycleClock

	DStats leakctl.Stats
}

// TotalDynJ sums the dynamic energy in the comparison scope.
func (r RunMeasurement) TotalDynJ() float64 {
	return r.DCacheDynJ + r.L2DynJ + r.MemDynJ + r.ICacheDynJ + r.ClockJ
}

// Comparison is the paper's headline result for one (benchmark, technique,
// operating point): net savings and performance loss, with the breakdown
// terms exposed for analysis and the ablation benches.
type Comparison struct {
	// NetSavingsPct is the paper's "net leakage savings": leakage saved
	// minus all dynamic overheads, as a percentage of the baseline
	// cache's leakage energy.
	NetSavingsPct float64
	// PerfLossPct is the percentage increase in execution cycles.
	PerfLossPct float64
	// TurnoffRatio is the average fraction of lines in standby.
	TurnoffRatio float64

	// Breakdown, as percentages of baseline leakage energy.
	GrossSavingsPct float64 // leakage avoided while lines were off
	ResidualPct     float64 // standby-mode residual leakage spent
	HardwarePct     float64 // control-hardware leakage (cost #2)
	DynOverheadPct  float64 // extra dynamic energy (costs #1, #3, #4)

	// Absolute energies, joules.
	BaseLeakJ float64
	TechLeakJ float64
	ExtraDynJ float64
}

// Compare evaluates a technique run against its baseline run at the
// operating point already set on the leakage model. clockHz converts
// cycles to seconds. Tags decay with lines; use CompareTags otherwise.
// A run with zero committed instructions or cycles, or a non-positive
// clock, returns ErrDegenerate instead of NaN/Inf percentages.
func Compare(m *leakage.Model, cfg cache.Config, mode leakage.Mode, base, tech RunMeasurement, clockHz float64) (Comparison, error) {
	return CompareTags(m, cfg, mode, true, base, tech, clockHz)
}

// checkMeasurement rejects a degenerate run with a descriptive ErrDegenerate.
func checkMeasurement(which string, r RunMeasurement) error {
	if r.Cycles == 0 {
		return fmt.Errorf("%w: %s run executed zero cycles", ErrDegenerate, which)
	}
	if r.Instructions == 0 {
		return fmt.Errorf("%w: %s run committed zero instructions", ErrDegenerate, which)
	}
	return nil
}

// CompareTags is Compare with explicit tag-decay control (Section 5.3).
func CompareTags(m *leakage.Model, cfg cache.Config, mode leakage.Mode, decayTags bool, base, tech RunMeasurement, clockHz float64) (Comparison, error) {
	if clockHz <= 0 {
		return Comparison{}, fmt.Errorf("%w: non-positive clock %v Hz", ErrDegenerate, clockHz)
	}
	if err := checkMeasurement("baseline", base); err != nil {
		return Comparison{}, err
	}
	if err := checkMeasurement("technique", tech); err != nil {
		return Comparison{}, err
	}
	lp := NewCacheLeakProfileTags(m, cfg, mode, decayTags)

	secPerCy := 1 / clockHz
	tBase := float64(base.Cycles) * secPerCy
	tTech := float64(tech.Cycles) * secPerCy

	baseLeak := lp.TotalActive() * tBase

	totalLineCycles := float64(lp.Lines) * float64(tech.Cycles)
	standby := float64(tech.StandbyLineCycles)
	active := totalLineCycles - standby
	techLeak := (lp.LineActive*active+lp.LineStandby*standby)*secPerCy +
		(lp.Edge+lp.CtlHardware)*tTech

	extraDyn := tech.TotalDynJ() - base.TotalDynJ()

	var c Comparison
	c.BaseLeakJ = baseLeak
	c.TechLeakJ = techLeak
	c.ExtraDynJ = extraDyn
	c.PerfLossPct = 100 * (float64(tech.Cycles) - float64(base.Cycles)) / float64(base.Cycles)
	if totalLineCycles > 0 {
		c.TurnoffRatio = standby / totalLineCycles
	}
	if baseLeak > 0 {
		c.NetSavingsPct = 100 * (baseLeak - techLeak - extraDyn) / baseLeak
		c.GrossSavingsPct = 100 * (lp.LineActive * standby * secPerCy) / baseLeak
		c.ResidualPct = 100 * (lp.LineStandby * standby * secPerCy) / baseLeak
		c.HardwarePct = 100 * (lp.CtlHardware * tTech) / baseLeak
		c.DynOverheadPct = 100 * extraDyn / baseLeak
	}
	return c, nil
}
