// Package sim is the experiment harness: it assembles the Table 2 machine
// (core, predictor, caches, memory) around a workload profile, runs timing
// simulations, and evaluates the paper's metrics at arbitrary operating
// points. Timing and dynamic energy are temperature-independent in this
// model, so one timing run is reused across the temperature studies.
package sim

import (
	"context"
	"errors"
	"fmt"

	"hotleakage/internal/bpred"
	"hotleakage/internal/cache"
	"hotleakage/internal/cpu"
	"hotleakage/internal/energy"
	"hotleakage/internal/leakage"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/tech"
	"hotleakage/internal/workload"
)

// ErrInvalidConfig wraps configuration-validation failures. Retrying a run
// that failed with it is pointless; the attempt loop fails such runs
// immediately.
var ErrInvalidConfig = errors.New("sim: invalid configuration")

// MachineConfig describes the simulated machine.
type MachineConfig struct {
	Tech       *tech.Params
	CPU        cpu.Config
	Bpred      bpred.Config
	L1I        cache.Config
	L1D        cache.Config
	L2         cache.Config
	MemLatency int
	// IL1Control, when non-nil, applies leakage control to the L1
	// instruction cache as well (extension study; the paper controls
	// only the D-cache).
	IL1Control *leakctl.Params
	// Warmup is the number of committed instructions simulated before
	// measurement begins (caches, predictor and decay state warm up;
	// statistics then reset) — the scaled-down analogue of the paper's
	// 2-billion-instruction skip.
	Warmup uint64
	// Instructions is the number of committed instructions measured.
	Instructions uint64
}

// DefaultMachine returns the paper's Table 2 configuration at 70 nm with
// the given L2 hit latency (the paper sweeps 5, 8, 11, 17). The technology
// parameters are a private copy, so a caller may override fields (e.g.
// ChipBackgroundW in the sensitivity ablation) without affecting other
// machines.
func DefaultMachine(l2Latency int) MachineConfig {
	t := *tech.MustByNode(tech.Node70)
	return MachineConfig{
		Tech:  &t,
		CPU:   cpu.DefaultConfig(),
		Bpred: bpred.DefaultConfig(),
		L1I: cache.Config{
			Name: "il1", SizeBytes: 64 * 1024, LineBytes: 64,
			Assoc: 2, HitLatency: 1,
		},
		L1D: cache.Config{
			Name: "dl1", SizeBytes: 64 * 1024, LineBytes: 64,
			Assoc: 2, HitLatency: 2,
		},
		L2: cache.Config{
			Name: "ul2", SizeBytes: 2 * 1024 * 1024, LineBytes: 64,
			Assoc: 2, HitLatency: l2Latency, Banks: 8,
		},
		MemLatency:   100,
		Warmup:       300_000,
		Instructions: 1_000_000,
	}
}

// Validate rejects impossible machine descriptions (zero sets/ways,
// non-positive latencies, degenerate cores, bad technology parameters)
// with descriptive errors before any simulation state is built.
func (mc MachineConfig) Validate() error {
	if mc.Tech == nil {
		return fmt.Errorf("machine has no technology parameters")
	}
	if err := mc.Tech.Validate(); err != nil {
		return err
	}
	if err := mc.CPU.Validate(); err != nil {
		return err
	}
	for _, c := range []cache.Config{mc.L1I, mc.L1D, mc.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if mc.MemLatency < 1 {
		return fmt.Errorf("memory latency must be >= 1 cycle (got %d)", mc.MemLatency)
	}
	if mc.Instructions == 0 {
		return fmt.Errorf("measured instruction count must be non-zero")
	}
	if mc.IL1Control != nil {
		if err := mc.IL1Control.Validate(); err != nil {
			return fmt.Errorf("IL1 control: %w", err)
		}
	}
	return nil
}

// RunResult bundles everything one simulation produced.
type RunResult struct {
	Bench       string
	Params      leakctl.Params
	CPU         cpu.Stats
	DStats      leakctl.Stats
	L2Stats     cache.Stats
	ICStats     cache.Stats
	Bpred       bpred.Stats
	TurnoffRat  float64
	Measurement energy.RunMeasurement

	// IL1Meas / IL1Stats are filled in when the I-cache is also under
	// leakage control (MachineConfig.IL1Control): the measurement's
	// StandbyLineCycles then refer to the I-cache so the same
	// energy.Compare machinery scores it against the L1I geometry.
	IL1Meas    *energy.RunMeasurement
	IL1Stats   *leakctl.Stats
	IL1Turnoff float64
}

// RunOne simulates the machine over one benchmark's stream, generated
// live from its profile, with the given leakage-control parameters.
// adapter, if non-nil, is installed on the controlled cache (adaptive
// decay study). The context carries the per-run deadline and suite-wide
// cancellation; a nil context means Background. The cell runs as a group
// of one lane.
func RunOne(ctx context.Context, mc MachineConfig, prof workload.Profile, params leakctl.Params, adapter leakctl.Adapter) (RunResult, error) {
	ln := &batchLane{
		sp:      runSpec{prof: prof, l2: mc.L2.HitLatency, tech: params.Technique, interval: params.Interval},
		params:  &params,
		adapter: adapter,
	}
	runGroup(ctx, mc, prof, []*batchLane{ln}, new(BatchState))
	return ln.res, ln.err
}

// Point is one evaluated (benchmark, technique) cell of a figure.
type Point struct {
	Bench     string
	Technique leakctl.Technique
	Interval  uint64
	Cmp       energy.Comparison
	Run       RunResult
}

// Suite runs comparisons with baseline caching: the uncontrolled run for a
// benchmark on the suite's machine is simulated once and reused. Baseline
// is safe for concurrent use: it simulates under the suite's lock, so
// concurrent first callers wait for one run instead of each simulating it,
// and a caller whose context ends stops waiting with the context's error.
type Suite struct {
	MC        MachineConfig
	lock      chan struct{} // one token, held while reading or filling baselines
	baselines map[string]RunResult
}

// NewSuite builds a suite over the given machine.
func NewSuite(mc MachineConfig) *Suite {
	return &Suite{MC: mc, lock: make(chan struct{}, 1), baselines: make(map[string]RunResult)}
}

// Baseline returns (simulating on first use) the uncontrolled run for a
// profile. A failed run is not kept, so the next call simulates again.
func (s *Suite) Baseline(ctx context.Context, prof workload.Profile) (RunResult, error) {
	select {
	case s.lock <- struct{}{}:
	case <-ctx.Done():
		return RunResult{}, ctx.Err()
	}
	defer func() { <-s.lock }()
	if r, ok := s.baselines[prof.Name]; ok {
		return r, nil
	}
	r, err := RunOne(ctx, s.MC, prof, leakctl.DefaultParams(leakctl.TechNone, 0), nil)
	if err == nil {
		s.baselines[prof.Name] = r
	}
	return r, err
}

// Evaluate runs one technique on one benchmark and scores it at the given
// temperature (Celsius). adapter, if non-nil, is installed on the
// controlled cache (adaptive-decay studies run through the suite path like
// any other configuration). The leakage model is re-environmented, so a
// Suite can score the same timing run at several temperatures cheaply via
// EvaluateRun.
func (s *Suite) Evaluate(ctx context.Context, prof workload.Profile, params leakctl.Params, tempC float64, m *leakage.Model, adapter leakctl.Adapter) (Point, error) {
	run, err := RunOne(ctx, s.MC, prof, params, adapter)
	if err != nil {
		return Point{}, err
	}
	return s.EvaluateRun(ctx, prof, run, tempC, m)
}

// EvaluateRun scores an existing technique run against the cached baseline
// at the given temperature (see Score).
func (s *Suite) EvaluateRun(ctx context.Context, prof workload.Profile, run RunResult, tempC float64, m *leakage.Model) (Point, error) {
	base, err := s.Baseline(ctx, prof)
	if err != nil {
		return Point{}, err
	}
	return Score(s.MC, m, base, run, tempC)
}

// Score rates a technique run against the uncontrolled run of the same
// benchmark on machine mc at the given temperature (Celsius): the paper's
// net savings and performance loss. The tags count as in standby only if
// the run's params decay them: a run that keeps its tags awake is not
// credited their leakage. Score changes nothing but m's environment, so
// one pair of runs can be scored under any model or temperature without
// simulating again.
func Score(mc MachineConfig, m *leakage.Model, base, run RunResult, tempC float64) (Point, error) {
	m.SetEnv(leakage.Env{TempK: leakage.CelsiusToKelvin(tempC), Vdd: mc.Tech.VddNominal})
	cmp, err := energy.CompareTags(m, mc.L1D, run.Params.Technique.Mode(), run.Params.DecayTags,
		base.Measurement, run.Measurement, mc.Tech.ClockHz)
	if err != nil {
		return Point{}, err
	}
	return Point{
		Bench:     run.Bench,
		Technique: run.Params.Technique,
		Interval:  run.Params.Interval,
		Cmp:       cmp,
		Run:       run,
	}, nil
}

// String summarises a point for debugging.
func (p Point) String() string {
	return fmt.Sprintf("%-7s %-9s iv=%-6d net=%6.1f%% perf=%5.2f%% off=%4.1f%%",
		p.Bench, p.Technique, p.Interval, p.Cmp.NetSavingsPct, p.Cmp.PerfLossPct,
		100*p.Cmp.TurnoffRatio)
}
