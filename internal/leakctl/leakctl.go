// Package leakctl implements the paper's generic abstraction for leakage
// control "based on putting individual lines into standby mode" (Section
// 2.3), and the concrete techniques compared in the paper: gated-Vss
// (non-state-preserving) and drowsy cache (state-preserving), plus reverse
// body bias (state-preserving) as the extension technique.
//
// The controlled L1 data cache lives here. Both techniques share identical
// decay hardware (package decay, noaccess policy by default) and identical
// threshold voltages, per the paper's fairness methodology. They differ in:
//
//   - residual standby leakage (computed by package leakage, not asserted),
//   - what an access to a standby line costs: drowsy pays a short wake-up
//     ("slow hit", >= 3 cycles with decayed tags); gated-Vss lost the data
//     and pays a full L2 fetch ("induced miss"),
//   - true-miss behaviour: drowsy must wake decayed tags before it can
//     detect the miss; gated-Vss skips standby ways entirely and is as fast
//     as an uncontrolled cache,
//   - decay-time work: gated-Vss must write back dirty lines before
//     discarding them.
package leakctl

import (
	"fmt"
	"strings"
	"time"

	"hotleakage/internal/cache"
	"hotleakage/internal/decay"
	"hotleakage/internal/leakage"
	"hotleakage/internal/power"
	"hotleakage/internal/tech"
)

// Technique identifies a leakage-control technique.
type Technique int

// Techniques. TechNone is the uncontrolled baseline (same code path, no
// decay), which keeps baseline-vs-technique comparisons apples-to-apples.
const (
	TechNone Technique = iota
	TechDrowsy
	TechGated
	TechRBB
)

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case TechNone:
		return "none"
	case TechDrowsy:
		return "drowsy"
	case TechGated:
		return "gated-vss"
	case TechRBB:
		return "rbb"
	}
	return fmt.Sprintf("technique(%d)", int(t))
}

// ParseTechnique maps a technique's String form (plus forgiving aliases
// for the daemon's JSON API) back to the Technique value.
func ParseTechnique(s string) (Technique, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "none", "baseline", "":
		return TechNone, nil
	case "drowsy":
		return TechDrowsy, nil
	case "gated-vss", "gated", "gatedvss", "gated_vss":
		return TechGated, nil
	case "rbb":
		return TechRBB, nil
	}
	return TechNone, fmt.Errorf("leakctl: unknown technique %q (have none, drowsy, gated-vss, rbb)", s)
}

// StatePreserving reports whether standby lines keep their contents.
func (t Technique) StatePreserving() bool { return t == TechDrowsy || t == TechRBB }

// Mode maps the technique to its standby leakage mode.
func (t Technique) Mode() leakage.Mode {
	switch t {
	case TechDrowsy:
		return leakage.ModeDrowsy
	case TechGated:
		return leakage.ModeGated
	case TechRBB:
		return leakage.ModeRBB
	}
	return leakage.ModeActive
}

// Params configures a controlled cache.
type Params struct {
	Technique Technique
	// Interval is the decay interval in cycles (0 disables decay).
	Interval uint64
	Policy   decay.Policy
	// DecayTags: tags are put in standby along with the data (the
	// paper's default for both techniques; "drowsy tags").
	DecayTags bool
	// SettleSleep / SettleWake are the mode-transition settling times in
	// cycles (paper Table 1: drowsy 3/3, gated 30/3).
	SettleSleep, SettleWake int
	// WakeLatency is the pipeline-visible penalty for touching a standby
	// line in a state-preserving cache. With decayed tags this is "at
	// least three cycles"; without, 1-2.
	WakeLatency int
	// PerLineAdaptive selects the Kaxiras-style per-line adaptive decay
	// (2-bit selectors choosing among exponentially spaced intervals,
	// starting from Interval). Premature decays promote a line to a
	// longer interval; decays never missed demote it. It counts with the
	// noaccess policy only.
	PerLineAdaptive bool
}

// Validate rejects impossible control parameters with descriptive errors.
// The decay machinery divides the interval by four for its global counter,
// so a non-zero interval below four cycles would never roll over; negative
// settling or wake latencies are meaningless.
func (p Params) Validate() error {
	switch p.Technique {
	case TechNone, TechDrowsy, TechGated, TechRBB:
	default:
		return fmt.Errorf("leakctl: unknown technique %d", int(p.Technique))
	}
	switch p.Policy {
	case decay.PolicyNoAccess, decay.PolicySimple:
	default:
		return fmt.Errorf("leakctl: unknown decay policy %d", int(p.Policy))
	}
	if p.Interval != 0 && p.Interval < 4 {
		return fmt.Errorf("leakctl: decay interval %d too short (need 0 or >= 4 cycles)", p.Interval)
	}
	if p.SettleSleep < 0 || p.SettleWake < 0 {
		return fmt.Errorf("leakctl: negative settling times (sleep %d, wake %d)", p.SettleSleep, p.SettleWake)
	}
	if p.WakeLatency < 0 {
		return fmt.Errorf("leakctl: negative wake latency %d", p.WakeLatency)
	}
	if p.PerLineAdaptive && p.Interval == 0 {
		return fmt.Errorf("leakctl: per-line adaptive decay needs a non-zero base interval")
	}
	if p.PerLineAdaptive && p.Policy != decay.PolicyNoAccess {
		return fmt.Errorf("leakctl: per-line adaptive decay counts with the noaccess policy only")
	}
	return nil
}

// DefaultParams returns the paper's configuration for a technique at the
// given decay interval.
func DefaultParams(t Technique, interval uint64) Params {
	p := Params{
		Technique: t,
		Interval:  interval,
		Policy:    decay.PolicyNoAccess,
		DecayTags: true,
	}
	switch t {
	case TechDrowsy:
		p.SettleSleep, p.SettleWake = 3, 3
		p.WakeLatency = 3
	case TechGated:
		p.SettleSleep, p.SettleWake = 30, 3
		p.WakeLatency = 0 // standby access is a miss; L2 covers it
	case TechRBB:
		// Body-bias settling is slower than a drowsy rail switch; we
		// model 9-cycle transitions (our choice; the paper does not
		// evaluate RBB directly, citing GIDL limits).
		p.SettleSleep, p.SettleWake = 9, 9
		p.WakeLatency = 9
	case TechNone:
		p.Interval = 0
	}
	if !p.DecayTags && t == TechDrowsy {
		p.WakeLatency = 1
	}
	return p
}

// Stats accumulates the controlled cache's event counts.
type Stats struct {
	Accesses uint64
	Hits     uint64 // fast hits on active lines
	SlowHits uint64 // state-preserving: hits on standby lines (wake first)
	Misses   uint64 // all accesses that went to L2

	InducedMisses uint64 // gated: data was live at decay; L2 fetch forced
	TrueMisses    uint64 // data genuinely absent

	TagWakeStalls uint64 // state-preserving: true misses delayed by tag wake

	SleepTransitions uint64
	WakeTransitions  uint64
	DecayWritebacks  uint64 // gated: dirty line written back at decay time
	EvictWritebacks  uint64
	Fills            uint64
}

// HitRate returns (fast+slow hits)/accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits+s.SlowHits) / float64(s.Accesses)
}

// Energy is the controlled cache's dynamic-energy breakdown in joules.
// Extra L2 energy from induced misses and decay writebacks accumulates in
// the next level's own meter.
type Energy struct {
	AccessJ     float64 // reads, writes, probes, fills
	CounterJ    float64 // decay-counter activity (filled in by Finish)
	TransitionJ float64 // sleep/wake rail switching, tag wakes
	WritebackJ  float64 // decay-writeback line read-out
}

// Total returns the sum of all categories.
func (e Energy) Total() float64 {
	return e.AccessJ + e.CounterJ + e.TransitionJ + e.WritebackJ
}

// Per-line standby state bits in DCache.state. A standby line is always
// valid: only a valid line decays, and a fill clears the byte.
const (
	lineStandby uint8 = 1 << iota
	lineHadLive       // gated: standby and contents were live when decayed
)

// DCache is the leakage-controlled L1 data cache.
type DCache struct {
	Cfg    cache.Config
	P      Params
	Next   cache.Level
	Stats  Stats
	Energy Energy

	// Adapter, when non-nil, adjusts the decay interval at runtime
	// (Section 5.4). AdaptChanges counts reprogrammings.
	Adapter      Adapter
	AdaptChanges uint64
	nextAdapt    uint64

	AccessE power.CacheEnergy
	TechE   power.TechniqueEnergy
	Machine *decay.Machine

	// Line state: the shared line store (tag word with the valid and
	// dirty flags, LRU rank) plus one standby-state byte per line.
	lines cache.Lines
	state []uint8

	curCycle        uint64
	standbyCount    int
	lastOccCycle    uint64
	standbyIntegral uint64
	settleDebt      uint64 // standby cycles forfeited to sleep settling
	finished        bool
	finalCycles     uint64
	statsStart      uint64        // cycle at which measurement began
	machineBase     decay.Machine // counter-stat snapshot at measurement start

	// Sampled next-level latency attribution: wall-clock ns spent inside
	// Next.Access on the 1-in-16 sampled misses (see l2SampleMask), plus
	// the sampled-miss count to normalize by.
	l2NS      uint64
	l2Sampled uint64

	// Observability flush state (see obs.go): counters resolved once,
	// plus the Stats/AdaptChanges values at the last flush.
	counters      *dcacheCounters
	obsPrev       Stats
	obsPrevAdapt  uint64
	obsPrevL2NS   uint64
	obsPrevL2Samp uint64
}

// l2SampleMask selects which misses get wall-clock timing of the
// next-level access: miss counts with the masked bits zero, i.e. 1 in 16.
const l2SampleMask = 15

// New builds a controlled L1 D-cache over next. Technique TechNone with
// Interval 0 is the baseline. Invalid cache or control configurations are
// reported as errors.
func New(p *tech.Params, cfg cache.Config, params Params, next cache.Level) (*DCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	lines := cache.NewLines(cfg)
	n := lines.Len()
	var machine *decay.Machine
	if params.PerLineAdaptive {
		machine = decay.NewPerLine(n, params.Interval)
	} else {
		machine = decay.New(n, params.Interval, params.Policy)
	}
	return &DCache{
		Cfg:     cfg,
		P:       params,
		Next:    next,
		AccessE: power.NewCacheEnergy(p, cfg.Geometry()),
		TechE:   power.NewTechniqueEnergy(p, cfg.LineBytes, params.Technique == TechGated),
		Machine: machine,
		lines:   lines,
		state:   make([]uint8, n),
	}, nil
}

// MustNew is New for static configuration known to be valid (tests,
// examples); it panics on error.
func MustNew(p *tech.Params, cfg cache.Config, params Params, next cache.Level) *DCache {
	d, err := New(p, cfg, params, next)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements cache.Level.
func (d *DCache) Name() string { return d.Cfg.Name }

// HitLat returns the hit latency in cycles (cpu.FetchCache).
func (d *DCache) HitLat() int { return d.Cfg.HitLatency }

// Lines returns the number of cache lines under control.
func (d *DCache) Lines() int { return d.lines.Len() }

// occSync folds elapsed standby line-cycles into the integral.
func (d *DCache) occSync(cycle uint64) {
	if cycle > d.lastOccCycle {
		d.standbyIntegral += uint64(d.standbyCount) * (cycle - d.lastOccCycle)
		d.lastOccCycle = cycle
	}
}

// expire is the decay callback: move line i to standby.
func (d *DCache) expire(i int) {
	s := d.state[i]
	if !d.lines.Valid(i) || s&lineStandby != 0 {
		return
	}
	d.occSync(d.curCycle)
	d.Stats.SleepTransitions++
	d.Energy.TransitionJ += d.TechE.SleepTransition
	d.settleDebt += uint64(d.P.SettleSleep)

	if d.P.Technique == TechGated {
		if d.lines.Dirty(i) {
			// The discarded line's contents must survive: write
			// back before disconnecting (cache-decay behaviour).
			d.Stats.DecayWritebacks++
			d.Energy.WritebackJ += d.AccessE.LineRead
			d.writebackToNext(i)
			d.lines.SetDirty(i, false)
		}
		s |= lineHadLive
	}
	d.state[i] = s | lineStandby
	d.standbyCount++
}

// writebackToNext pushes line i's contents to the next level.
func (d *DCache) writebackToNext(i int) {
	if d.Next != nil {
		d.Next.Access(d.lines.Addr(i), true, d.curCycle)
	}
}

// wake returns line i to the active state.
func (d *DCache) wake(i int) {
	if d.state[i]&lineStandby == 0 {
		return
	}
	d.occSync(d.curCycle)
	d.state[i] = 0
	d.standbyCount--
	d.Stats.WakeTransitions++
	d.Energy.TransitionJ += d.TechE.WakeTransition
	d.Machine.Touch(i)
}

// Tick advances the decay machinery to cycle. The CPU calls it at every
// scheduled tick event (see NextTickEvent); calling it every cycle is
// equally correct, just slower — it is O(1) between global-counter
// rollovers.
func (d *DCache) Tick(cycle uint64) {
	d.curCycle = cycle
	d.Machine.Advance(cycle, d.expire)
	if d.Adapter != nil {
		d.adaptTick(cycle)
	}
}

// NextTickEvent returns the next cycle at which Tick does observable work:
// the decay machine's next global-counter rollover or the adapter's next
// consultation, whichever is sooner (cpu.FetchCache). Between those
// cycles Tick only re-stamps curCycle, which every state-changing path
// re-stamps anyway, so the core may skip the calls without changing any
// counter, energy meter or expire ordering.
func (d *DCache) NextTickEvent() uint64 {
	n := d.Machine.NextRollover()
	if d.Adapter != nil && d.nextAdapt < n {
		n = d.nextAdapt
	}
	return n
}

// Access implements cache.Level with the technique-specific standby
// semantics described in the package comment.
func (d *DCache) Access(addr uint64, write bool, cycle uint64) int {
	d.curCycle = cycle
	// Advance does observable work only at rollovers (its loop condition
	// is this same compare), so the call is skipped between them.
	if cycle >= d.Machine.NextRollover() {
		d.Machine.Advance(cycle, d.expire)
	}
	d.Stats.Accesses++
	base, tag := d.lines.Locate(addr)
	i := d.lines.Find(base, tag)

	// Fast hit on an active line: identical for every technique.
	if i >= 0 && d.state[i]&lineStandby == 0 {
		return d.finishHit(base, i, write, false)
	}
	// From here on i, when >= 0, is a standby line holding the tag.

	preserving := d.P.Technique.StatePreserving() || d.P.Technique == TechNone

	// Standby line holds the data and the technique preserves state:
	// "slow hit" — wake it, pay the wake latency, no L2 access. The
	// first probe found the line asleep; after wake-up the tags and
	// data are probed again, so a slow hit costs one extra array access
	// on top of the wake transition.
	if preserving && i >= 0 {
		d.Stats.SlowHits++
		d.Energy.AccessJ += d.AccessE.ReadHit
		// Per-line adaptive: this decay was premature.
		d.Machine.Promote(i)
		d.wake(i)
		return d.finishHit(base, i, write, true)
	}

	// Miss path.
	d.Stats.Misses++
	sleeper := d.lruStandby(base)
	extra := 0
	if preserving && d.P.DecayTags && sleeper >= 0 {
		// Drowsy/RBB must wake the standby ways' tags before the
		// miss can be confirmed ("gated-Vss is actually faster" on
		// these true misses).
		extra = d.P.WakeLatency
		d.Stats.TagWakeStalls++
		d.Energy.AccessJ += d.AccessE.TagProbe
		d.Energy.TransitionJ += tagFraction * d.TechE.WakeTransition
	}
	if d.P.Technique == TechGated && i >= 0 && d.state[i]&lineHadLive != 0 {
		// The data was live when the line was disconnected: this L2
		// access exists only because of the leakage control.
		d.Stats.InducedMisses++
		d.Machine.Promote(i)
	} else {
		d.Stats.TrueMisses++
	}
	d.Energy.AccessJ += d.AccessE.TagProbe

	lat := d.Cfg.HitLatency + extra
	if d.Next != nil {
		if d.Stats.Misses&l2SampleMask == 0 {
			// 1-in-16 sampled wall-clock attribution of next-level time
			// (deterministic in the miss count, so which simulated
			// accesses are sampled never varies across runs).
			t := time.Now()
			lat += d.Next.Access(addr, false, cycle)
			d.l2NS += uint64(time.Since(t))
			d.l2Sampled++
		} else {
			lat += d.Next.Access(addr, false, cycle)
		}
	}
	// A standby line holding the tag (gated) is refilled in place.
	// Otherwise the victim is the line store's — the first invalid line,
	// else the least recently used — except that a full set gives up its
	// least recently used standby line first (gated: its data is already
	// dead; drowsy: sleepers are the stalest by construction).
	victim := i
	if victim < 0 {
		if victim = d.lines.Victim(base); d.lines.Valid(victim) && sleeper >= 0 {
			victim = sleeper
		}
	}
	d.fill(base, victim, tag, victim == i, write)
	return lat
}

// tagFraction approximates the share of a line's cells that belong to its
// tag (the paper: "tags account for 5-10% of the leakage energy").
const tagFraction = 0.07

// lruStandby returns the least recently used standby line of the set
// starting at base, or -1 when none of its lines is in standby.
func (d *DCache) lruStandby(base int) int {
	v := -1
	for i := base; i < base+d.Cfg.Assoc; i++ {
		if d.state[i]&lineStandby != 0 && (v < 0 || d.lines.Rank(i) > d.lines.Rank(v)) {
			v = i
		}
	}
	return v
}

// finishHit applies LRU/dirty/energy bookkeeping for a hit on line i of
// the set starting at base and returns its latency.
func (d *DCache) finishHit(base, i int, write, slow bool) int {
	d.lines.Touch(base, i)
	d.Machine.Touch(i)
	if write {
		d.lines.SetDirty(i, true)
		d.Energy.AccessJ += d.AccessE.WriteHit
	} else {
		d.Energy.AccessJ += d.AccessE.ReadHit
	}
	d.Stats.Hits += b2u(!slow)
	lat := d.Cfg.HitLatency
	if slow {
		lat += d.P.WakeLatency
	}
	return lat
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// fill installs tag in line victim of the set starting at base after a
// miss, writing back a dirty victim. refill marks a standby line that
// already held this tag (a gated induced or true miss), refilled in place.
func (d *DCache) fill(base, victim int, tag uint32, refill, write bool) {
	standby := d.state[victim]&lineStandby != 0
	if d.lines.Dirty(victim) {
		// A drowsy dirty victim must be woken to read its contents
		// out (energy only; off the critical path).
		if standby {
			d.Energy.TransitionJ += d.TechE.WakeTransition
		}
		d.Stats.EvictWritebacks++
		d.Energy.WritebackJ += d.AccessE.LineRead
		d.writebackToNext(victim)
	}
	if standby {
		d.occSync(d.curCycle)
		d.standbyCount--
		if !refill {
			// The decayed line is dying without ever having been
			// missed: its decay was correct — per-line adaptive
			// moves it toward a shorter interval.
			d.Machine.Demote(victim)
		}
	}
	d.lines.Fill(base, victim, tag, write)
	d.state[victim] = 0
	d.Machine.Touch(victim)
	d.Stats.Fills++
	d.Energy.AccessJ += d.AccessE.LineFill
}

// ResetStats zeroes counts, energy meters and occupancy accounting at the
// end of a warmup phase, keeping cache and decay state intact. cycle is the
// current simulation cycle.
func (d *DCache) ResetStats(cycle uint64) {
	d.curCycle = cycle
	d.occSync(cycle)
	d.Stats = Stats{}
	d.Energy = Energy{}
	d.standbyIntegral = 0
	d.settleDebt = 0
	d.statsStart = cycle
	d.machineBase = *d.Machine
	d.obsPrev = Stats{}
}

// Finish closes the occupancy accounting at the end-of-run cycle and fills
// in the counter energy. It must be called exactly once, after the last
// access.
func (d *DCache) Finish(cycle uint64) {
	if d.finished {
		return
	}
	d.finished = true
	d.finalCycles = cycle
	d.curCycle = cycle
	d.occSync(cycle)
	if d.P.Interval != 0 {
		bumps := d.Machine.LocalBumps - d.machineBase.LocalBumps
		resets := d.Machine.LocalResets - d.machineBase.LocalResets
		d.Energy.CounterJ = float64(cycle-d.statsStart)*d.TechE.GlobalTick +
			float64(bumps)*d.TechE.LocalBump +
			float64(resets)*d.TechE.LocalReset
	}
}

// StandbyLineCycles returns the effective line-cycles spent in standby
// during the measurement phase, net of the settling debt (a line entering
// standby leaks at the active rate for SettleSleep cycles before the rail
// actually drops — 30 cycles for gated-Vss, which is what makes it "more
// sensitive to the smaller decay interval").
func (d *DCache) StandbyLineCycles() uint64 {
	if d.settleDebt >= d.standbyIntegral {
		return 0
	}
	return d.standbyIntegral - d.settleDebt
}

// MeasuredCycles returns the number of cycles in the measurement phase
// (after Finish).
func (d *DCache) MeasuredCycles() uint64 { return d.finalCycles - d.statsStart }

// TurnoffRatio returns the average fraction of lines in standby over the
// measurement phase (must be called after Finish).
func (d *DCache) TurnoffRatio() float64 {
	mc := d.MeasuredCycles()
	if mc == 0 {
		return 0
	}
	return float64(d.StandbyLineCycles()) / (float64(d.lines.Len()) * float64(mc))
}

// StandbyNow returns the number of lines currently in standby (tests).
func (d *DCache) StandbyNow() int { return d.standbyCount }

// Contains reports whether addr's line is present with live contents (for
// tests; does not touch LRU, counters or stats).
func (d *DCache) Contains(addr uint64) bool {
	i := d.lines.Find(d.lines.Locate(addr))
	// A gated standby line's contents are destroyed.
	return i >= 0 && (d.state[i]&lineStandby == 0 || d.P.Technique != TechGated)
}
