package api

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"hotleakage/internal/attack"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/sim"
	"hotleakage/internal/store"
	"hotleakage/internal/workload"
)

// ExpandCells turns a request into deduplicated cell lists: explicit
// cells first, then the cross products. Baseline ("none") cells are
// normalized to interval 0 so they alias the single uncontrolled run.
// It lives in the protocol package because a request's meaning must be
// identical on every node that interprets it — the single-node daemon and
// the cluster coordinator expand through this one function, so a sweep
// shards into exactly the cells it would have run on one box.
//
// The returned wire list puts every energy cell before every attack cell,
// each kind in discovery order: wire[i] corresponds to specs[i] for
// i < len(specs) and to attacks[i-len(specs)] after, which is the order the
// daemon reports cell statuses in.
func ExpandCells(req SweepRequest) ([]sim.CellSpec, []sim.AttackSpec, []Cell, error) {
	var specs []sim.CellSpec
	var attacks []sim.AttackSpec
	seen := make(map[string]bool)
	add := func(c Cell) error {
		if c.Kind == KindAttack {
			sp, err := c.AttackSpec()
			if err != nil {
				return err
			}
			if _, ok := attack.ByName(sp.Scenario); !ok {
				return fmt.Errorf("unknown attack scenario %q", sp.Scenario)
			}
			if sp.L2 <= 0 {
				return fmt.Errorf("cell %s: l2_latency must be positive", sp.Key())
			}
			if sp.Technique == leakctl.TechNone {
				sp.Interval = 0
			}
			if !seen[sp.Key()] {
				seen[sp.Key()] = true
				attacks = append(attacks, sp)
			}
			return nil
		}
		if c.Kind != "" {
			return fmt.Errorf("unknown cell kind %q", c.Kind)
		}
		sp, err := c.Spec()
		if err != nil {
			return err
		}
		if _, ok := workload.ByName(sp.Bench); !ok {
			return fmt.Errorf("unknown benchmark %q", sp.Bench)
		}
		if sp.L2 <= 0 {
			return fmt.Errorf("cell %s: l2_latency must be positive", sp.Key())
		}
		if sp.Technique == leakctl.TechNone { // one uncontrolled run per (bench, L2)
			sp.Interval = 0
		}
		if !seen[sp.Key()] {
			seen[sp.Key()] = true
			specs = append(specs, sp)
		}
		return nil
	}
	for _, c := range req.Cells {
		if err := add(c); err != nil {
			return nil, nil, nil, err
		}
	}
	if len(req.Benchmarks) > 0 || len(req.Scenarios) > 0 {
		l2s := req.L2Latencies
		if len(l2s) == 0 {
			l2s = []int{11}
		}
		intervals := req.Intervals
		if len(intervals) == 0 {
			intervals = []uint64{0}
		}
		for _, b := range req.Benchmarks {
			for _, l2 := range l2s {
				if req.IncludeBaselines {
					if err := add(Cell{Bench: b, L2: l2, Technique: "none"}); err != nil {
						return nil, nil, nil, err
					}
				}
				for _, tname := range req.Techniques {
					for _, iv := range intervals {
						if err := add(Cell{Bench: b, L2: l2, Technique: tname, Interval: iv}); err != nil {
							return nil, nil, nil, err
						}
					}
				}
			}
		}
		for _, sc := range req.Scenarios {
			for _, l2 := range l2s {
				if req.IncludeBaselines {
					if err := add(Cell{Kind: KindAttack, Scenario: sc, L2: l2, Technique: "none"}); err != nil {
						return nil, nil, nil, err
					}
				}
				for _, tname := range req.Techniques {
					for _, iv := range intervals {
						if err := add(Cell{Kind: KindAttack, Scenario: sc, L2: l2, Technique: tname, Interval: iv}); err != nil {
							return nil, nil, nil, err
						}
					}
				}
			}
		}
	}
	wire := make([]Cell, 0, len(specs)+len(attacks))
	for _, sp := range specs {
		wire = append(wire, FromSpec(sp))
	}
	for _, sp := range attacks {
		wire = append(wire, FromAttackSpec(sp))
	}
	return specs, attacks, wire, nil
}

// CrossCells counts the distinct cells the request's cross products name,
// without building them, so a front door can refuse an oversized request
// before ExpandCells allocates it. It applies ExpandCells' dedup
// arithmetically: axis values are counted once, techniques are compared
// after ParseTechnique aliasing, and a "none" technique (or
// IncludeBaselines) is one cell per (workload, L2) whatever the
// intervals. Explicit Cells are not counted, and unparseable techniques
// (which ExpandCells rejects) count nothing, so the result never exceeds
// the expanded total. It saturates instead of overflowing.
func CrossCells(req SweepRequest) int {
	if len(req.Benchmarks) == 0 && len(req.Scenarios) == 0 {
		return 0
	}
	baseline := req.IncludeBaselines
	var techs []leakctl.Technique
	for _, name := range req.Techniques {
		t, err := leakctl.ParseTechnique(name)
		switch {
		case err != nil:
		case t == leakctl.TechNone:
			baseline = true
		default:
			techs = append(techs, t)
		}
	}
	perGroup := satMul(distinct(techs), max(distinct(req.Intervals), 1))
	if baseline {
		perGroup++
	}
	groups := satMul(distinct(req.Benchmarks)+distinct(req.Scenarios), max(distinct(req.L2Latencies), 1))
	return satMul(groups, perGroup)
}

// distinct counts the distinct values in xs.
func distinct[T cmp.Ordered](xs []T) int {
	c := slices.Clone(xs)
	slices.Sort(c)
	return len(slices.Compact(c))
}

// satMul multiplies non-negative counts, saturating at math.MaxInt.
func satMul(a, b int) int {
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

// RequestHash is the sweep's identity: budget plus the sorted cell set.
// It dedupes identical in-flight requests — on the coordinator as on a
// single node.
func RequestHash(instructions, warmup uint64, wire []Cell) (string, error) {
	sorted := append([]Cell(nil), wire...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		// Energy cells ("" kind) sort before attack cells; within a kind the
		// historic order applies, so an all-energy request hashes exactly as
		// it did before cell kinds existed (Kind/Scenario marshal away).
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.L2 != b.L2 {
			return a.L2 < b.L2
		}
		if a.Technique != b.Technique {
			return a.Technique < b.Technique
		}
		return a.Interval < b.Interval
	})
	return store.CanonicalHash(struct {
		Instructions uint64 `json:"instructions"`
		Warmup       uint64 `json:"warmup"`
		Cells        []Cell `json:"cells"`
	}{instructions, warmup, sorted})
}

// RetryAfterSeconds renders a backoff hint as whole seconds for the
// Retry-After header, rounding up with a floor of 1: a sub-second hint
// truncated to "0" would make well-behaved clients (including this
// package's admission loop) hot-loop on a full queue.
func RetryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
