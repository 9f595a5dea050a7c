package sim

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"hotleakage/internal/attack"
	"hotleakage/internal/harness"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/store"
)

// AttackSpec names one timing-leakage cell by its public coordinates: the
// adversarial scenario, the machine's L2 hit latency, the leakage-control
// technique and the decay interval. It is the security counterpart of
// CellSpec and resolves through the same ladder.
type AttackSpec struct {
	Scenario  string
	L2        int
	Technique leakctl.Technique
	Interval  uint64
}

// Key returns the cell's run key. The "attack/" prefix keeps attack keys
// disjoint from energy run keys in the memo, the checkpoint file and the
// event stream.
func (as AttackSpec) Key() string {
	return fmt.Sprintf("attack/%s/%d/%d/%d", as.Scenario, as.L2, as.Technique, as.Interval)
}

func (as AttackSpec) labels() (string, string) { return as.Scenario, as.Technique.String() }

// attackIdentity is the canonical identity document an attack cell is
// content-addressed by. Kind is always "attack" (never empty), so an attack
// cell can never alias an energy cell whose cellIdentity omits the field.
// The machine description zeroes the instruction budget: an attack run's
// length is fixed by the scenario (trials x secrets), not by -n/-warmup, so
// the same sweep hashes identically regardless of the energy budget the
// process happens to run with.
type attackIdentity struct {
	Kind              string          `json:"kind"`
	CheckpointVersion int             `json:"checkpoint_version"`
	Machine           MachineConfig   `json:"machine"`
	Scenario          string          `json:"scenario"`
	Config            attack.Scenario `json:"config"`
	Technique         string          `json:"technique"`
	Interval          uint64          `json:"interval"`
}

// attackIdentityFor builds the identity document for one attack cell on mc.
func attackIdentityFor(mc MachineConfig, sc attack.Scenario, t leakctl.Technique, interval uint64) attackIdentity {
	mc.Instructions = 0
	mc.Warmup = 0
	return attackIdentity{
		Kind:              "attack",
		CheckpointVersion: checkpointVersion,
		Machine:           mc,
		Scenario:          sc.Name,
		Config:            sc,
		Technique:         t.String(),
		Interval:          interval,
	}
}

// AttackHash returns the content address of one attack cell.
func AttackHash(mc MachineConfig, sc attack.Scenario, t leakctl.Technique, interval uint64) (string, error) {
	return store.CanonicalHash(attackIdentityFor(mc, sc, t, interval))
}

// AttackOutcome is the result of one RunAttackCells cell.
type AttackOutcome = Outcome[AttackSpec, attack.Result]

// attackMachine narrows a machine config to the hardware view an attack
// runs against.
func attackMachine(mc MachineConfig) attack.Machine {
	return attack.Machine{Tech: mc.Tech, L1D: mc.L1D, L2: mc.L2, MemLatency: mc.MemLatency}
}

// RunAttackCells executes an explicit set of attack cells through the
// resolution ladder. The returned outcomes parallel specs; an unknown
// scenario fails its own cell only.
func (e *Experiments) RunAttackCells(specs []AttackSpec) ([]AttackOutcome, error) {
	return e.attacks.outcomes(specs, func(as AttackSpec) (AttackSpec, error) {
		if _, ok := attack.ByName(as.Scenario); !ok {
			return as, fmt.Errorf("unknown attack scenario %q", as.Scenario)
		}
		return as, nil
	})
}

// attackKind is the attack cell kind: a prime+probe scenario against the
// controlled L1, measured as a timing channel. Attack runs are cheap (tens
// of thousands of serialized cache accesses), so the kind has no batch
// phase and no cost model. Its specs reach the ladder with a registered
// scenario (RunAttackCells and FrontierFigure check the name).
type attackKind struct{ e *Experiments }

func (attackKind) public(as AttackSpec) AttackSpec { return as }

func (k attackKind) identity(as AttackSpec) any {
	sc, _ := attack.ByName(as.Scenario)
	return attackIdentityFor(k.e.suite(as.L2).MC, sc, as.Technique, as.Interval)
}

// check rejects corrupt attack results before they enter the memo, the
// checkpoint or the store.
func (attackKind) check(r attack.Result) error {
	if r.Scenario == "" || r.Probes == 0 {
		return fmt.Errorf("empty attack result")
	}
	for _, v := range []float64{
		r.GuessingEntropyPrior, r.GuessingEntropyPosterior,
		r.MinEntropyLeakageBits, r.CapacityBits,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite channel metric in attack result for %s", r.Scenario)
		}
	}
	return nil
}

func (k attackKind) job(as AttackSpec) harness.Job[attack.Result] {
	sc, _ := attack.ByName(as.Scenario)
	m := attackMachine(k.e.suite(as.L2).MC)
	return harness.Job[attack.Result]{
		Run: func(context.Context) (attack.Result, error) {
			r, err := attack.Run(m, sc, leakctl.DefaultParams(as.Technique, as.Interval))
			if err != nil {
				// attack.Run fails only on a configuration it cannot build.
				return r, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
			}
			return r, nil
		},
	}
}

func (k attackKind) remote(ctx context.Context, specs []AttackSpec) ([]RemoteOutcome[AttackSpec, attack.Result], error) {
	return k.e.Remote.RunAttackCells(ctx, specs)
}

// FrontierPoint is one operating point on the energy-vs-security frontier:
// a technique at a decay interval, its leakage metrics from the attack
// scenario, and its mean net energy savings across the benchmark suite.
type FrontierPoint struct {
	Technique      string
	Interval       uint64
	LeakageBits    float64 // Smith min-entropy leakage
	GuessPosterior float64
	CapacityBits   float64
	SlowHits       uint64
	Misses         uint64
	// NetSavingsPct is the mean net leakage-energy savings across the
	// benchmark suite at this operating point (0 for the uncontrolled
	// reference row).
	NetSavingsPct float64
	// AttackErr / SavingsErr flag the halves that could not be produced.
	AttackErr  bool
	SavingsErr bool
}

// Frontier is the headline security figure: leakage vs energy savings per
// technique and decay interval for one adversarial scenario.
type Frontier struct {
	ID       string
	Title    string
	Scenario string
	Points   []FrontierPoint
}

// CSV renders the frontier as comma-separated rows for plotting tools.
func (f Frontier) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "technique,interval,leak_bits,guess_posterior,capacity_bits,net_savings_pct\n")
	for _, p := range f.Points {
		leak, guess, cap_ := "ERR", "ERR", "ERR"
		if !p.AttackErr {
			leak = fmt.Sprintf("%.6f", p.LeakageBits)
			guess = fmt.Sprintf("%.6f", p.GuessPosterior)
			cap_ = fmt.Sprintf("%.6f", p.CapacityBits)
		}
		sav := "ERR"
		if !p.SavingsErr {
			sav = fmt.Sprintf("%.4f", p.NetSavingsPct)
		}
		fmt.Fprintf(&b, "%s,%d,%s,%s,%s,%s\n", p.Technique, p.Interval, leak, guess, cap_, sav)
	}
	return b.String()
}

// String renders the frontier as an aligned text table.
func (f Frontier) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [scenario %s]\n", f.ID, f.Title, f.Scenario)
	fmt.Fprintf(&b, "%-10s %9s %11s %11s %11s %12s\n",
		"technique", "interval", "leak(bits)", "guess-post", "cap(bits)", "savings(%)")
	for _, p := range f.Points {
		leak, guess, cap_ := "ERR", "ERR", "ERR"
		if !p.AttackErr {
			leak = fmt.Sprintf("%.4f", p.LeakageBits)
			guess = fmt.Sprintf("%.4f", p.GuessPosterior)
			cap_ = fmt.Sprintf("%.4f", p.CapacityBits)
		}
		sav := "ERR"
		if !p.SavingsErr {
			sav = fmt.Sprintf("%.2f", p.NetSavingsPct)
		}
		fmt.Fprintf(&b, "%-10s %9d %11s %11s %11s %12s\n",
			p.Technique, p.Interval, leak, guess, cap_, sav)
	}
	return b.String()
}

// FrontierFigure builds the energy-vs-security frontier for one scenario:
// an uncontrolled reference row plus drowsy and gated-Vss at each decay
// interval, pairing each operating point's leakage (from the attack
// scenario) with its mean net energy savings across the benchmark suite.
// Failed halves degrade to ERR cells, never to a failed figure.
func (e *Experiments) FrontierFigure(scenario string, l2 int, tempC float64, intervals []uint64) (Frontier, error) {
	if _, ok := attack.ByName(scenario); !ok {
		return Frontier{}, fmt.Errorf("sim: unknown attack scenario %q (have %s)",
			scenario, strings.Join(attack.Names(), ", "))
	}
	ivs := append([]uint64(nil), intervals...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i] < ivs[j] })

	// Plan every attack cell in one batch so the ladder resolves them
	// together (one remote round trip, one store pass).
	techs := []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated}
	specs := []AttackSpec{{Scenario: scenario, L2: l2, Technique: leakctl.TechNone, Interval: 0}}
	for _, t := range techs {
		for _, iv := range ivs {
			specs = append(specs, AttackSpec{Scenario: scenario, L2: l2, Technique: t, Interval: iv})
		}
	}
	if _, err := e.RunAttackCells(specs); err != nil {
		return Frontier{}, err
	}
	// Energy side: the same operating points across the benchmark suite.
	e.prefetch(l2, techs, ivs)
	m := e.model(l2)
	s := e.suite(l2)

	f := Frontier{
		ID:       "Frontier",
		Title:    fmt.Sprintf("energy-vs-security frontier, L2=%d, %.0fC", l2, tempC),
		Scenario: scenario,
	}
	point := func(t leakctl.Technique, iv uint64) FrontierPoint {
		p := FrontierPoint{Technique: t.String(), Interval: iv}
		if r, err := e.attacks.get(AttackSpec{Scenario: scenario, L2: l2, Technique: t, Interval: iv}); err != nil {
			p.AttackErr = true
		} else {
			p.LeakageBits = r.MinEntropyLeakageBits
			p.GuessPosterior = r.GuessingEntropyPosterior
			p.CapacityBits = r.CapacityBits
			p.SlowHits = r.SlowHits
			p.Misses = r.Misses
		}
		if t == leakctl.TechNone {
			// The uncontrolled cache is the savings baseline by definition.
			return p
		}
		var sum float64
		n := 0
		for _, prof := range e.Profiles {
			if pt, ok := e.evalCell(s, m, prof, l2, t, iv, tempC); ok {
				sum += pt.Cmp.NetSavingsPct
				n++
			}
		}
		if n == 0 {
			p.SavingsErr = true
		} else {
			p.NetSavingsPct = sum / float64(n)
		}
		return p
	}
	f.Points = append(f.Points, point(leakctl.TechNone, 0))
	for _, t := range techs {
		for _, iv := range ivs {
			f.Points = append(f.Points, point(t, iv))
		}
	}
	return f, nil
}
