package main

import "time"

// settings pins everything a run depends on besides the workload, the seed
// and the run length. A change that claims a performance gain must leave
// these values alone: they define what the benchmark measures.
type settings struct {
	// Workers sizes the simulation pool of each Experiments of the paper
	// and frontier workloads. The cluster runs ClusterWorkers leakd workers
	// of one harness worker each instead. Clients is the number of
	// closed-loop client goroutines on the cluster workload; the simulation
	// workloads run one operation at a time.
	Workers, Clients int
	// SetupReps is how many times a run sets its workload up; setup_s is
	// the median, and the last set-up is the one measured.
	SetupReps int

	// Instructions/Warmup is the per-cell budget of the simulation
	// workloads (committed instructions measured after a warm-up), the
	// budget leakbench regenerates the paper at. Their set-up runs one
	// warm-up operation at the smaller SetupInstructions/SetupWarmup budget.
	Instructions, Warmup           uint64
	SetupInstructions, SetupWarmup uint64

	// Frontier: FrontierIntervals seeded decay intervals, one in each
	// log-spaced stratum of [IntervalMin, IntervalMax], at L2 latency
	// FrontierL2 and FrontierTempC degrees, for each scenario.
	FrontierScenarios        []string
	FrontierIntervals        int
	IntervalMin, IntervalMax uint64
	FrontierL2               int
	FrontierTempC            float64

	// cluster-mixed: ClusterWorkers workers, a universe of ClusterBenches
	// benchmarks under none/drowsy/gated-Vss at ClusterInterval, and sweeps
	// of ClusterWarm stored cells plus one fresh benchmark under drowsy and
	// gated-Vss at a never-seen interval. Every cell is at L2 latency ServeL2
	// and the smaller ServeInstructions/ServeWarmup budget, at which a
	// worker simulates the fresh cells well within the 250 ms between the
	// coordinator's status polls.
	ServeL2                        int
	ServeInstructions, ServeWarmup uint64
	ClusterWorkers                 int
	ClusterBenches                 int
	ClusterInterval                uint64
	ClusterWarm                    int
	// ServeWarmupFor is the untimed closed-loop warm-up before the timed
	// phase of the cluster workload.
	ServeWarmupFor time.Duration

	// CheckEnergy/CheckAttack size the seeded sample each run recomputes
	// with the scalar paths after its timed phase.
	CheckEnergy, CheckAttack int

	// ReplayInstr is how many instructions each replayed simulator layer
	// (generator, front fill, backend, controller) is timed over in a
	// traced run.
	ReplayInstr uint64

	Seed    uint64
	Seconds float64
}

// defaults are the pinned settings every recorded run uses. Two simulation
// workers and two clients match the two cores of the reference machine.
var defaults = settings{
	Workers:   2,
	Clients:   2,
	SetupReps: 5,

	Instructions:      1_000_000,
	Warmup:            300_000,
	SetupInstructions: 30_000,
	SetupWarmup:       10_000,

	FrontierScenarios: []string{"ws-select", "occupancy"},
	FrontierIntervals: 8,
	IntervalMin:       512,
	IntervalMax:       131_072,
	FrontierL2:        11,
	FrontierTempC:     110,

	ServeL2:           11,
	ServeInstructions: 100_000,
	ServeWarmup:       30_000,
	ClusterWorkers:    2,
	ClusterBenches:    11,
	ClusterInterval:   4096,
	ClusterWarm:       8,
	ServeWarmupFor:    2 * time.Second,

	CheckEnergy: 5,
	CheckAttack: 2,

	ReplayInstr: 200_000,

	Seed:    1,
	Seconds: 15,
}
