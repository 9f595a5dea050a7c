package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"

	"hotleakage/internal/attack"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/server/api"
	"hotleakage/internal/sim"
	"hotleakage/internal/workload"
)

// paperFigures are the simulated figures and tables `leakbench -all`
// regenerates, in its order; each returns its ERR-cell count. Figure 1 and
// Tables 1-2 are analytic and simulate nothing.
var paperFigures = []struct {
	name string
	call func(e *sim.Experiments) int
}{
	{"Figure3_4", func(e *sim.Experiments) int { return pairErrs(e.Figure3_4()) }},
	{"Figure5_6", func(e *sim.Experiments) int { return pairErrs(e.Figure5_6()) }},
	{"Figure7", func(e *sim.Experiments) int { return e.Figure7().FailedCells() }},
	{"Figure8_9", func(e *sim.Experiments) int { return pairErrs(e.Figure8_9()) }},
	{"Figure10_11", func(e *sim.Experiments) int { return pairErrs(e.Figure10_11()) }},
	{"Figure12_13", func(e *sim.Experiments) int { return pairErrs(e.Figure12_13()) }},
	{"Table3", func(e *sim.Experiments) int { return strings.Count(e.Table3(), "ERR") }},
}

func pairErrs(a, b sim.Figure) int { return a.FailedCells() + b.FailedCells() }

// paperL2 are the L2 latencies of the paper's figures; the adaptivity
// sweep (Figures 12-13, Table 3) runs at paperSweepL2.
var paperL2 = []int{5, 8, 11, 17}

const paperSweepL2 = 11

// paperEvals is how many cells one regeneration evaluates for energy:
// Figures 3-11 score drowsy and gated-Vss per benchmark at one interval
// (five figure calls), Figures 12-13 and Table 3 each score both
// techniques at every sweep interval.
func paperEvals(benches int) int {
	return 5*2*benches + 2*2*benches*len(sim.SweepIntervals)
}

// simInstance runs paper-all or frontier: one operation is one complete
// regeneration from a fresh Experiments.
type simInstance struct {
	r         *run
	frontier  bool
	profiles  []workload.Profile
	intervals []uint64 // frontier decay intervals

	mu   sync.Mutex
	last *sim.Experiments // the latest operation's, for the output check
}

// seededProfiles returns the benchmark profiles with each generator seed
// XORed with seed; seed 0 gives the paper's instruction streams.
func seededProfiles(seed uint64) []workload.Profile {
	ps := workload.Profiles()
	for i := range ps {
		ps[i].Seed ^= seed
	}
	return ps
}

// stratifiedIntervals draws n increasing decay intervals, one log-uniform
// in each of n equal log-spaced strata of [lo, hi], so every seed covers
// the whole range and no seed's operation is much cheaper than another's.
func stratifiedIntervals(rng *rand.Rand, n int, lo, hi uint64) []uint64 {
	llo, lhi := math.Log(float64(lo)), math.Log(float64(hi))
	step := (lhi - llo) / float64(n)
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		v := uint64(math.Round(math.Exp(llo + step*(float64(i)+rng.Float64()))))
		v = min(max(v, lo), hi)
		if len(out) > 0 && v <= out[len(out)-1] {
			v = out[len(out)-1] + 1
		}
		out = append(out, v)
	}
	return out
}

func setupPaper(ctx context.Context, r *run) (instance, error) {
	return setupSim(ctx, r, false)
}

func setupFrontier(ctx context.Context, r *run) (instance, error) {
	return setupSim(ctx, r, true)
}

// setupSim builds the instance and runs one warm-up operation at the
// set-up budget: it builds the worker pools, batch states and trace
// caches and faults in the heap, so the timed operations do not pay for
// a cold process.
func setupSim(ctx context.Context, r *run, frontier bool) (instance, error) {
	si := &simInstance{r: r, frontier: frontier, profiles: seededProfiles(r.seed)}
	if frontier {
		si.intervals = stratifiedIntervals(r.rng(streamInputs), r.s.FrontierIntervals, r.s.IntervalMin, r.s.IntervalMax)
	}
	if err := si.regenerate(ctx, si.experiments(ctx, r.s.SetupInstructions, r.s.SetupWarmup)); err != nil {
		return nil, fmt.Errorf("warm-up operation: %w", err)
	}
	return si, nil
}

func (si *simInstance) experiments(ctx context.Context, instr, warmup uint64) *sim.Experiments {
	e := sim.NewExperiments()
	e.Instructions, e.Warmup = instr, warmup
	e.Profiles = si.profiles
	e.Workers = si.r.s.Workers
	e.Ctx = ctx
	return e
}

func (si *simInstance) op(ctx context.Context, _ int) (string, error) {
	e := si.experiments(ctx, si.r.s.Instructions, si.r.s.Warmup)
	err := si.regenerate(ctx, e)
	si.mu.Lock()
	si.last = e
	si.mu.Unlock()
	return "", err
}

// regenerate produces every figure (paper-all) or the frontier of every
// scenario (frontier) on e, recording a span per public call, and fails on
// any ERR cell.
func (si *simInstance) regenerate(ctx context.Context, e *sim.Experiments) error {
	defer e.Close()
	parent, tr := spanFrom(ctx), si.r.tr
	bad := 0
	if si.frontier {
		for _, sc := range si.r.s.FrontierScenarios {
			id, st := tr.begin()
			f, err := e.FrontierFigure(sc, si.r.s.FrontierL2, si.r.s.FrontierTempC, si.intervals)
			tr.end(id, parent, "sim.FrontierFigure."+sc, "", st)
			if err != nil {
				return err
			}
			for _, p := range f.Points {
				if p.AttackErr || p.SavingsErr {
					bad++
				}
			}
		}
	} else {
		for _, f := range paperFigures {
			id, st := tr.begin()
			bad += f.call(e)
			tr.end(id, parent, "sim."+f.name, "", st)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d ERR cells: %s", bad, e.FailureSummary())
	}
	return e.Err()
}

// cells lists every energy cell one operation simulates.
func (si *simInstance) cells() []sim.CellSpec {
	var out []sim.CellSpec
	add := func(bench string, l2 int, ivs []uint64) {
		out = append(out, sim.CellSpec{Bench: bench, L2: l2, Technique: leakctl.TechNone})
		for _, t := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
			for _, iv := range ivs {
				out = append(out, sim.CellSpec{Bench: bench, L2: l2, Technique: t, Interval: iv})
			}
		}
	}
	for _, p := range si.profiles {
		if si.frontier {
			add(p.Name, si.r.s.FrontierL2, si.intervals)
			continue
		}
		for _, l2 := range paperL2 {
			if l2 == paperSweepL2 {
				add(p.Name, l2, sim.SweepIntervals)
			} else {
				add(p.Name, l2, []uint64{sim.DefaultInterval})
			}
		}
	}
	return out
}

// attackCells lists every attack cell one frontier operation runs.
func (si *simInstance) attackCells() []sim.AttackSpec {
	if !si.frontier {
		return nil
	}
	var out []sim.AttackSpec
	for _, sc := range si.r.s.FrontierScenarios {
		out = append(out, sim.AttackSpec{Scenario: sc, L2: si.r.s.FrontierL2, Technique: leakctl.TechNone})
		for _, t := range []leakctl.Technique{leakctl.TechDrowsy, leakctl.TechGated} {
			for _, iv := range si.intervals {
				out = append(out, sim.AttackSpec{Scenario: sc, L2: si.r.s.FrontierL2, Technique: t, Interval: iv})
			}
		}
	}
	return out
}

func (si *simInstance) profile(name string) workload.Profile {
	for _, p := range si.profiles {
		if p.Name == name {
			return p
		}
	}
	return workload.Profile{Name: name}
}

// check recomputes a seeded sample of the latest operation's cells. The
// Experiments answers from its memo, so the comparison is between the
// lockstep batch path that produced the figures and the scalar RunOne.
func (si *simInstance) check(ctx context.Context, c *checker) {
	si.mu.Lock()
	e := si.last
	si.mu.Unlock()
	if e == nil {
		c.fail("no operation completed, nothing to check")
		return
	}
	rng := si.r.rng(streamCheck)
	energy := sample(rng, si.cells(), si.r.s.CheckEnergy)
	outs, err := e.RunCells(energy)
	if err != nil {
		c.fail("memo lookup: %v", err)
		return
	}
	byKey := make(map[string]sim.CellOutcome, len(outs))
	for _, o := range outs {
		byKey[o.Key] = o
	}
	c.energy(ctx, energy, si.r.s.Instructions, si.r.s.Warmup, si.profile,
		func(cs sim.CellSpec) (sim.RunResult, error) {
			o := byKey[cs.Key()]
			if o.Err != nil {
				return sim.RunResult{}, o.Err
			}
			return o.Result, nil
		}, true)

	attacks := sample(rng, si.attackCells(), si.r.s.CheckAttack)
	if len(attacks) == 0 {
		return
	}
	aouts, err := e.RunAttackCells(attacks)
	if err != nil {
		c.fail("attack memo lookup: %v", err)
		return
	}
	aby := make(map[string]sim.AttackOutcome, len(aouts))
	for _, o := range aouts {
		aby[o.Key] = o
	}
	c.attackCells(attacks, func(as sim.AttackSpec) (attack.Result, error) {
		o := aby[as.Key()]
		if o.Err != nil {
			return attack.Result{}, o.Err
		}
		return o.Result, nil
	})
}

func (si *simInstance) inputs() layerInputs {
	cells := si.cells()
	req := api.SweepRequest{Instructions: si.r.s.Instructions, Warmup: si.r.s.Warmup}
	for _, cs := range cells {
		req.Cells = append(req.Cells, api.FromSpec(cs))
	}
	for _, as := range si.attackCells() {
		req.Cells = append(req.Cells, api.FromAttackSpec(as))
	}
	return layerInputs{profiles: si.profiles, cells: cells, attacks: si.attackCells(),
		instr: si.r.s.Instructions, warmup: si.r.s.Warmup, request: req}
}

func (si *simInstance) calls(d deltas, ops int, _ *details) layerCalls {
	lc := simCalls(d, si.r.s.Instructions+si.r.s.Warmup)
	if si.frontier {
		lc.evals = float64(ops * len(si.r.s.FrontierScenarios) * 2 * len(si.intervals) * len(si.profiles))
	} else {
		lc.evals = float64(ops * paperEvals(len(si.profiles)))
	}
	return lc
}

func (si *simInstance) close() error { return nil }
