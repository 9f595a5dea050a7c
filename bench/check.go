package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/sim"
	"hotleakage/internal/workload"
)

// checker accumulates one run's output checks: each check recomputes a
// cell the workload produced with the scalar path (sim.RunOne or
// attack.Run) and requires byte-equal marshalled JSON.
type checker struct {
	attempted, failed int
	errs              []string

	// counts are the exact simulated counts of the counted energy sample;
	// sampler holds its stage-sampler and L2-timer counter deltas and wall
	// the time its recomputation took.
	counts  map[string]uint64
	sampler deltas
	wall    time.Duration
	// results are the counted sample's scalar results and cells the cells
	// they belong to; the traced run replays them through the energy and
	// store layers.
	results []sim.RunResult
	cells   []sim.CellSpec
	attacks []sim.AttackSpec
}

func (c *checker) fail(format string, a ...any) {
	c.attempted++
	c.failed++
	c.errs = append(c.errs, fmt.Sprintf(format, a...))
}

// same counts one check: the workload's output against the scalar one.
func (c *checker) same(what string, got, want any) {
	gb, gerr := json.Marshal(got)
	wb, werr := json.Marshal(want)
	switch {
	case gerr != nil || werr != nil:
		c.fail("%s: marshal: %v %v", what, gerr, werr)
	case !bytes.Equal(gb, wb):
		c.fail("%s: workload output differs from the scalar recomputation", what)
	default:
		c.attempted++
	}
}

// exactCounts maps the exact-count metrics to the counters they come from.
var exactCounts = []struct{ metric, counter string }{
	{"cpu.cycles", "sim_cycles_total"},
	{"cpu.instructions", "sim_instructions_total"},
	{"cpu.mispredicts", "sim_mispredicts_total"},
	{"leakctl.dl1_accesses", "leakctl_dl1_accesses_total"},
	{"leakctl.slow_hits", "leakctl_dl1_slow_hits_total"},
	{"leakctl.induced_misses", "leakctl_dl1_induced_misses_total"},
	{"leakctl.sleep_transitions", "leakctl_dl1_sleep_transitions_total"},
}

// energy checks energy cells. got returns a cell's result as the workload
// produced it. When counted, the recomputation's counter deltas become the
// run's exact counts; only a sample that depends on the seed alone may be
// counted, so the counts repeat between runs of one seed.
func (c *checker) energy(ctx context.Context, cells []sim.CellSpec, instr, warmup uint64,
	prof func(string) workload.Profile, got func(sim.CellSpec) (sim.RunResult, error), counted bool) {
	gots := make([]sim.RunResult, len(cells))
	gerrs := make([]error, len(cells))
	for i, cs := range cells {
		gots[i], gerrs[i] = got(cs)
	}
	s0, t0 := obs.Default.Snapshot(), time.Now()
	wants := make([]sim.RunResult, len(cells))
	werrs := make([]error, len(cells))
	for i, cs := range cells {
		wants[i], werrs[i] = sim.RunOne(ctx, machine(cs.L2, instr, warmup), prof(cs.Bench),
			leakctl.DefaultParams(cs.Technique, cs.Interval), nil)
	}
	if counted {
		c.wall += time.Since(t0)
		d := newDeltas(s0, obs.Default.Snapshot())
		if c.counts == nil {
			c.counts = make(map[string]uint64)
			c.sampler = deltas{}
		}
		for _, ec := range exactCounts {
			c.counts[ec.metric] += d[ec.counter]
		}
		for k, v := range d {
			c.sampler[k] += v
		}
	}
	for i, cs := range cells {
		switch {
		case gerrs[i] != nil:
			c.fail("%s: %v", cs.Key(), gerrs[i])
		case werrs[i] != nil:
			c.fail("%s: scalar recomputation: %v", cs.Key(), werrs[i])
		default:
			c.same(cs.Key(), gots[i], wants[i])
			if counted {
				c.results = append(c.results, wants[i])
				c.cells = append(c.cells, cs)
			}
		}
	}
}

// attackCells checks attack cells against attack.Run.
func (c *checker) attackCells(specs []sim.AttackSpec, got func(sim.AttackSpec) (attack.Result, error)) {
	for _, as := range specs {
		g, err := got(as)
		if err != nil {
			c.fail("%s: %v", as.Key(), err)
			continue
		}
		sc, ok := attack.ByName(as.Scenario)
		if !ok {
			c.fail("%s: unknown scenario", as.Key())
			continue
		}
		want, err := attack.Run(attackMachine(as.L2), sc, leakctl.DefaultParams(as.Technique, as.Interval))
		if err != nil {
			c.fail("%s: scalar recomputation: %v", as.Key(), err)
			continue
		}
		c.same(as.Key(), g, want)
		c.attacks = append(c.attacks, as)
	}
}

// machine is the Table 2 machine at an L2 latency and a budget, exactly as
// sim.Experiments and the daemon build it.
func machine(l2 int, instr, warmup uint64) sim.MachineConfig {
	mc := sim.DefaultMachine(l2)
	mc.Instructions, mc.Warmup = instr, warmup
	return mc
}

// attackMachine is the hardware view an attack cell at an L2 latency runs
// against.
func attackMachine(l2 int) attack.Machine {
	mc := sim.DefaultMachine(l2)
	return attack.Machine{Tech: mc.Tech, L1D: mc.L1D, L2: mc.L2, MemLatency: mc.MemLatency}
}

// deltas are counter increases over a phase, by counter name.
type deltas map[string]uint64

func newDeltas(a, b obs.Snapshot) deltas {
	d := make(deltas, len(b.Counters))
	for k, v := range b.Counters {
		d[k] = obs.Delta(v, a.Counters[k])
	}
	return d
}

func (d deltas) f(name string) float64 { return float64(d[name]) }

// sample draws k distinct elements of xs (all of them when k >= len(xs)).
func sample[T any](rng interface{ Perm(int) []int }, xs []T, k int) []T {
	if k > len(xs) {
		k = len(xs)
	}
	out := make([]T, 0, k)
	for _, i := range rng.Perm(len(xs))[:k] {
		out = append(out, xs[i])
	}
	return out
}
