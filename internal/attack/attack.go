// Package attack implements the deterministic adversarial workload family
// behind the energy-vs-security frontier: a victim whose memory references
// depend on a secret, interleaved with a prime+probe attacker sweeping a
// window of cache sets in the leakage-controlled L1 D-cache.
//
// The attacker primes every way of each target set, lets the victim run a
// burst of secret-dependent accesses (drawn round-robin from per-set line
// rings, the same controlled-gap reuse machinery the workload generators
// use), idles across the decay window, then probes the primed lines one at
// a time and classifies each probe's latency:
//
//   - fast hit: the line stayed active — nothing happened to it;
//   - slow hit: state-preserving control (drowsy/RBB) decayed the line but
//     kept its contents — distinguishable from an eviction, so decay adds
//     no noise to the channel;
//   - miss: the line is gone. Under gated-Vss a decayed line and a
//     victim-evicted line both land here at identical latency, which is the
//     paper's non-state-preserving distinction recast as information flow:
//     decay noise masks the victim's evictions.
//
// One trial's per-set class counts canonicalize into an observation symbol;
// package channel turns the empirical (secret, observation) distribution
// into guessing entropy, min-entropy leakage and a capacity estimate.
//
// Probes are serialized — each access's latency advances the clock before
// the next issues — modelling the pointer-chasing measurement loops real
// prime+probe attackers use to make per-access latency architecturally
// observable; the out-of-order core would overlap the misses and blur the
// channel.
//
// Everything is deterministic for a given scenario: the victim's choices
// come from a seeded stats.RNG and the hardware is cycle-accurate, so a
// Result is bit-reproducible across hosts (the content-addressed store
// relies on this).
package attack

import (
	"fmt"
	"sort"

	"hotleakage/internal/cache"
	"hotleakage/internal/channel"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/stats"
	"hotleakage/internal/tech"
	"hotleakage/internal/workload"
)

// Address-space layout. The attacker and victim own disjoint tag regions:
// victim lines live in the same dataBase region the workload generators
// allocate from; attacker lines live above it, so a victim line can evict
// an attacker line (that is the channel) but never tag-match one.
const (
	lineBytes  = 64
	victimBase = 0x4000_0000 // workload.dataBase
	attackBase = 0x8000_0000
)

// Scenario parameterizes one adversarial workload. All fields are part of
// the content-address identity of a result, so adding or changing a field
// can never alias previously stored results.
type Scenario struct {
	Name string `json:"name"`
	// Secrets is the size of the secret space; the harness runs Trials
	// trials for each secret value in round-robin order.
	Secrets int `json:"secrets"`
	// TargetSets consecutive cache sets starting at SetBase are primed and
	// probed each trial.
	TargetSets int `json:"target_sets"`
	SetBase    int `json:"set_base"`
	// SecretSets is how many target sets the victim's secret selects
	// (secret s touches sets {(s*SecretSets+j) mod TargetSets}). Ignored
	// when Occupancy is set, where the secret is instead the *number* of
	// target sets the victim occupies: floor(s*TargetSets/(Secrets-1)).
	SecretSets int  `json:"secret_sets"`
	Occupancy  bool `json:"occupancy,omitempty"`
	// VictimRing shapes the victim's reference stream over its selected
	// sets: each target set owns a ring of Lines cache lines visited
	// round-robin (the workload generators' controlled-gap reuse tier), and
	// each victim access goes to a secret-selected set with probability P —
	// the remainder is noise into a uniformly random target set.
	VictimRing workload.Ring `json:"victim_ring"`
	// VictimAccesses is the victim's burst length per trial.
	VictimAccesses int `json:"victim_accesses"`
	// IdleGap is the idle window in cycles between the victim burst and the
	// probe sweep — the window the decay machinery acts in.
	IdleGap uint64 `json:"idle_gap"`
	// Trials is the number of measurement rounds per secret value.
	Trials int    `json:"trials"`
	Seed   uint64 `json:"seed"`
}

// Validate rejects degenerate scenarios with descriptive errors.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("attack: scenario has no name")
	}
	if sc.Secrets < 2 {
		return fmt.Errorf("attack: %s: need at least 2 secrets, have %d", sc.Name, sc.Secrets)
	}
	if sc.TargetSets < 1 || sc.SetBase < 0 {
		return fmt.Errorf("attack: %s: bad target window (%d sets at base %d)", sc.Name, sc.TargetSets, sc.SetBase)
	}
	if !sc.Occupancy && (sc.SecretSets < 1 || sc.SecretSets > sc.TargetSets) {
		return fmt.Errorf("attack: %s: secret_sets %d outside [1, %d]", sc.Name, sc.SecretSets, sc.TargetSets)
	}
	if sc.VictimRing.Lines < 1 || sc.VictimRing.P <= 0 || sc.VictimRing.P > 1 {
		return fmt.Errorf("attack: %s: bad victim ring {%d lines, p=%g}", sc.Name, sc.VictimRing.Lines, sc.VictimRing.P)
	}
	if sc.VictimAccesses < 1 {
		return fmt.Errorf("attack: %s: victim burst must be positive", sc.Name)
	}
	if sc.IdleGap == 0 {
		return fmt.Errorf("attack: %s: idle gap must be positive", sc.Name)
	}
	if sc.Trials < 1 {
		return fmt.Errorf("attack: %s: trials must be positive", sc.Name)
	}
	return nil
}

// scenarios is the registry, in presentation order.
var scenarios = []Scenario{
	{
		// Which part of the window does the victim work in? Secret selects
		// a 2-set slice of a 16-set window — the classic working-set
		// location channel.
		Name: "ws-select", Secrets: 8, TargetSets: 16, SetBase: 64,
		SecretSets: 2, VictimRing: workload.Ring{Lines: 2, P: 0.85},
		VictimAccesses: 24, IdleGap: 8192, Trials: 40, Seed: 0x5ec1,
	},
	{
		// How much of the window does the victim occupy? Secret is the
		// victim's footprint size — an occupancy channel.
		Name: "occupancy", Secrets: 4, TargetSets: 16, SetBase: 128,
		Occupancy: true, SecretSets: 1, VictimRing: workload.Ring{Lines: 1, P: 0.9},
		VictimAccesses: 24, IdleGap: 8192, Trials: 40, Seed: 0x0cc1,
	},
	{
		// Tiny variant of ws-select for smoke tests and golden fixtures.
		Name: "smoke", Secrets: 4, TargetSets: 8, SetBase: 32,
		SecretSets: 2, VictimRing: workload.Ring{Lines: 1, P: 0.9},
		VictimAccesses: 12, IdleGap: 4096, Trials: 12, Seed: 0x0051,
	},
}

// Scenarios returns the registered scenarios in presentation order.
func Scenarios() []Scenario {
	out := make([]Scenario, len(scenarios))
	copy(out, scenarios)
	return out
}

// ByName looks a registered scenario up by name.
func ByName(name string) (Scenario, bool) {
	for _, sc := range scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	out := make([]string, len(scenarios))
	for i, sc := range scenarios {
		out[i] = sc.Name
	}
	sort.Strings(out)
	return out
}

// Machine is the hardware view an attack runs against: the controlled L1
// D-cache backed by the L2 and memory, exactly as the cores wire them. The
// package deliberately does not import sim — sim glues its MachineConfig
// down to this view.
type Machine struct {
	Tech       *tech.Params
	L1D        cache.Config
	L2         cache.Config
	MemLatency int
}

// Result is one attack run's outcome: raw probe-class counts plus the
// channel metrics. Every field is deterministic for a (Machine, Scenario,
// Params) triple; JSON round-trips bit-identically (shortest-form float
// encoding), so a stored Result replays exactly.
type Result struct {
	Scenario  string `json:"scenario"`
	Technique string `json:"technique"`
	Interval  uint64 `json:"interval"`
	Secrets   int    `json:"secrets"`
	Trials    int    `json:"trials"` // per secret
	Probes    uint64 `json:"probes"`
	FastHits  uint64 `json:"fast_hits"`
	SlowHits  uint64 `json:"slow_hits"`
	Misses    uint64 `json:"misses"`
	// Observations is the number of distinct observation symbols seen.
	Observations int `json:"observations"`
	channel.Metrics
}

// LeakageBits is the headline leakage number figures plot: Smith's
// min-entropy leakage in bits.
func (r Result) LeakageBits() float64 { return r.MinEntropyLeakageBits }

// geometry is the L1 set arithmetic an attack needs.
type geometry struct {
	sets  int
	assoc int
}

func geometryOf(cfg cache.Config) (geometry, error) {
	if cfg.LineBytes != lineBytes {
		return geometry{}, fmt.Errorf("attack: L1 line size %dB unsupported (need %d)", cfg.LineBytes, lineBytes)
	}
	return geometry{sets: cfg.Sets(), assoc: cfg.Assoc}, nil
}

// attackerAddr returns the attacker's priming address for (set, way):
// distinct tags per way, all mapping to the target set.
func (g geometry) attackerAddr(set, way int) uint64 {
	return attackBase + uint64(way*g.sets+set)*lineBytes
}

// victimAddr returns victim ring line k of the given set.
func (g geometry) victimAddr(set, k int) uint64 {
	return victimBase + uint64(k*g.sets+set)*lineBytes
}

// tracer generates the scenario's reference stream for the serialized
// port-level runner (Run). The victim's choices depend only on the RNG and
// the ring cursors, never on observed latency.
type tracer struct {
	sc  Scenario
	g   geometry
	rng *stats.RNG
	cur []int // per-target-set victim ring cursor (round-robin)
}

func newTracer(sc Scenario, g geometry) *tracer {
	return &tracer{sc: sc, g: g, rng: stats.NewRNG(sc.Seed ^ 0xa77acc), cur: make([]int, sc.TargetSets)}
}

// secretSets returns the target-set indexes (relative to SetBase) the
// victim's secret selects.
func (tr *tracer) secretSets(secret int) []int {
	sc := tr.sc
	if sc.Occupancy {
		n := secret * sc.TargetSets / (sc.Secrets - 1)
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, sc.SecretSets)
	for j := range out {
		out[j] = (secret*sc.SecretSets + j) % sc.TargetSets
	}
	return out
}

// victimRefs appends one trial's victim burst for the given secret: each
// access goes to a secret-selected set with probability VictimRing.P
// (round-robin across the selection) or to a uniformly random target set
// (noise), and within the set takes the ring's next line.
func (tr *tracer) victimRefs(secret int, refs []uint64) []uint64 {
	sel := tr.secretSets(secret)
	next := 0
	for i := 0; i < tr.sc.VictimAccesses; i++ {
		var t int
		if len(sel) > 0 && tr.rng.Bool(tr.sc.VictimRing.P) {
			t = sel[next%len(sel)]
			next++
		} else {
			t = tr.rng.Intn(tr.sc.TargetSets)
		}
		k := tr.cur[t]
		tr.cur[t] = (k + 1) % tr.sc.VictimRing.Lines
		refs = append(refs, tr.g.victimAddr(tr.sc.SetBase+t, k))
	}
	return refs
}

// classify maps one probe's latency to its class. The boundaries are exact:
// a fast hit costs exactly HitLatency; a state-preserving slow hit costs
// exactly HitLatency+WakeLatency; everything else went to the next level
// (HitLatency + optional tag-wake stall + L2, strictly larger than both).
func classify(lat int, cfg cache.Config, p leakctl.Params) channel.Class {
	switch {
	case lat == cfg.HitLatency:
		return channel.ClassFastHit
	case p.Technique.StatePreserving() && p.WakeLatency > 0 && lat == cfg.HitLatency+p.WakeLatency:
		return channel.ClassSlowHit
	default:
		return channel.ClassMiss
	}
}

// Run executes the scenario against the given machine and control
// parameters and returns the channel metrics. The probe loop is serialized
// at the D-cache port: each access's latency advances the clock before the
// next access issues (see the package comment for why).
func Run(m Machine, sc Scenario, params leakctl.Params) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	g, err := geometryOf(m.L1D)
	if err != nil {
		return Result{}, err
	}
	if sc.SetBase+sc.TargetSets > g.sets {
		return Result{}, fmt.Errorf("attack: %s: target window [%d,%d) exceeds %d L1 sets",
			sc.Name, sc.SetBase, sc.SetBase+sc.TargetSets, g.sets)
	}
	mem := cache.NewMemory(m.Tech, m.MemLatency)
	l2, err := cache.New(m.Tech, m.L2, mem)
	if err != nil {
		return Result{}, err
	}
	dl1, err := leakctl.New(m.Tech, m.L1D, params, l2)
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Scenario:  sc.Name,
		Technique: params.Technique.String(),
		Interval:  params.Interval,
		Secrets:   sc.Secrets,
		Trials:    sc.Trials,
	}
	tr := newTracer(sc, g)
	joint := channel.NewJoint(sc.Secrets)
	obsSym := make([]byte, sc.TargetSets)
	victim := make([]uint64, 0, sc.VictimAccesses)
	cycle := uint64(1)

	access := func(addr uint64) int {
		lat := dl1.Access(addr, false, cycle)
		cycle += uint64(lat)
		return lat
	}

	for trial := 0; trial < sc.Trials; trial++ {
		for secret := 0; secret < sc.Secrets; secret++ {
			// Prime: fill every way of every target set with attacker lines.
			for t := 0; t < sc.TargetSets; t++ {
				for w := 0; w < g.assoc; w++ {
					access(g.attackerAddr(sc.SetBase+t, w))
				}
			}
			// Victim: a secret-dependent burst over the ring pools.
			victim = tr.victimRefs(secret, victim[:0])
			for _, addr := range victim {
				access(addr)
			}
			// Idle: the decay window. The decay machine self-advances past
			// the skipped rollovers on the next access.
			cycle += sc.IdleGap
			// Probe: re-touch the primed lines in prime order, serialized,
			// and canonicalize each set's class counts into one symbol.
			for t := 0; t < sc.TargetSets; t++ {
				misses, slow := 0, 0
				for w := 0; w < g.assoc; w++ {
					lat := access(g.attackerAddr(sc.SetBase+t, w))
					res.Probes++
					switch classify(lat, m.L1D, params) {
					case channel.ClassFastHit:
						res.FastHits++
					case channel.ClassSlowHit:
						res.SlowHits++
						slow++
					default:
						res.Misses++
						misses++
					}
				}
				obsSym[t] = 'A' + byte(misses*(g.assoc+1)+slow)
			}
			joint.Observe(secret, string(obsSym))
			obsChannelObserved.Add(1)
		}
	}
	dl1.Finish(cycle)

	res.Observations = joint.Observations()
	res.Metrics = joint.Metrics()
	obsAttackRuns.Add(1)
	obsAttackTrials.Add(uint64(sc.Trials * sc.Secrets))
	obsAttackProbes.Add(res.Probes)
	obsChannelEstimates.Add(1)
	return res, nil
}
