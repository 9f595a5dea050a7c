// Package workload synthesizes the instruction and memory-reference streams
// the simulator consumes. SPEC CPU2000 reference binaries and inputs are
// proprietary, so each of the paper's 11 integer benchmarks is replaced by a
// parameterized generator that reproduces the statistics the experiments
// actually depend on (see DESIGN.md):
//
//   - the cache-line generational pattern, modelled with four reference
//     tiers: a HOT pool reused at short gaps, a MID pool of L1-resident
//     lines reused at gaps spread across 1K-100K cycles (this is the
//     population the decay interval fights over: too short an interval
//     turns these reuses into induced misses / slow hits), a FAR pool that
//     overflows the L1 and sets its miss rate, and a STREAM of fresh lines
//     that die immediately (ideal decay targets), with periodic pool churn
//     creating dead generations;
//   - instruction-level parallelism, via dependence-distance distributions;
//   - branch behaviour, via a synthetic control-flow graph with biased,
//     patterned, flaky, call and return branches that the simulated hybrid
//     predictor must actually learn, plus periodic phase jumps;
//   - instruction-footprint size, which drives I-cache behaviour.
//
// Generators are deterministic for a given profile and seed.
package workload

import "hotleakage/internal/stats"

// OpClass classifies a synthetic instruction.
type OpClass uint8

// Operation classes; latencies and FU bindings live in the cpu package.
const (
	OpIntALU OpClass = iota
	OpIntMul
	OpFPALU
	OpFPMul
	OpLoad
	OpStore
	OpBranch // conditional
	OpCall
	OpReturn
	OpJump
)

// String implements fmt.Stringer.
func (o OpClass) String() string {
	switch o {
	case OpIntALU:
		return "ialu"
	case OpIntMul:
		return "imul"
	case OpFPALU:
		return "fpalu"
	case OpFPMul:
		return "fpmul"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	case OpCall:
		return "call"
	case OpReturn:
		return "return"
	case OpJump:
		return "jump"
	}
	return "op?"
}

// IsMem reports whether the op accesses the data cache.
func (o OpClass) IsMem() bool { return o == OpLoad || o == OpStore }

// IsCTI reports whether the op is a control-transfer instruction.
func (o OpClass) IsCTI() bool {
	return o == OpBranch || o == OpCall || o == OpReturn || o == OpJump
}

// Instr is one synthetic instruction.
type Instr struct {
	Op     OpClass
	PC     uint64
	Src1   int32 // dependence distance in instructions (0 = none)
	Src2   int32
	Addr   uint64 // memory ops: byte address
	Taken  bool   // CTIs: actual direction
	Target uint64 // CTIs: actual target PC when taken
}

// Profile parameterizes one synthetic benchmark.
type Profile struct {
	Name string

	// Instruction mix (fractions of non-CTI slots; CTI density comes
	// from BlockLen).
	LoadFrac   float64
	StoreFrac  float64
	IntMulFrac float64
	FPFrac     float64

	// Dependence structure: each source operand depends on the result of
	// an instruction Geometric(DepP)+1 slots back; DepNoneFrac of
	// operands are free. Larger DepP means tighter chains and less ILP
	// to hide induced-miss latency with.
	DepP        float64
	DepNoneFrac float64

	// Data-reference tiers. Probabilities are per memory access; the
	// remainder (1 - PHot - sum(Ring.P) - PFar) streams through fresh
	// lines.
	HotLines int     // tier-0: short-gap resident set, in cache lines
	HotZipf  float64 // zipf exponent over the hot pool
	PHot     float64

	// Rings are tier-1: L1-resident line sets visited round-robin, so
	// every line in ring i is reused at a controlled gap of
	// Lines/P memory accesses. The rings define the benchmark's
	// medium/long reuse-gap spectrum — the population a decay interval
	// kills or spares.
	Rings []Ring

	FarLines int // tier-2: L1-overflowing (L2-resident) set -> L1 misses
	FarZipf  float64
	PFar     float64

	// SpatialRun is the mean number of consecutive accesses that walk
	// sequentially from a fresh reference (spatial locality bursts).
	SpatialRun float64

	// ChurnPeriod is the number of memory accesses between generational
	// pool-rotation events; ChurnFrac of the hot and mid pools is
	// replaced by fresh lines, leaving the old generation to die in the
	// cache.
	ChurnPeriod int
	ChurnFrac   float64

	// Control flow. Code is organized as regions (loop bodies /
	// functions) of RegionBlocks consecutive basic blocks. A region is
	// iterated with a geometric trip count (mean TripMean); its last
	// block carries the back-edge. Inner blocks end in forward branches
	// (biased / flaky / patterned) or calls into zipf-selected regions,
	// matched by returns through a stack. This structured walk makes the
	// dynamic branch mix and instruction footprint stationary instead of
	// hostage to a random graph's absorbing cycles.
	CodeBlocks   int     // total basic blocks (footprint ~ blocks*BlockLen*4 bytes)
	BlockLen     int     // mean instructions per block (incl. the CTI)
	RegionBlocks int     // blocks per region (default 12)
	CodeZipf     float64 // zipf exponent for region selection (code hotness)

	FlakyFrac   float64 // fraction of inner branches that are hard to predict
	PatternFrac float64 // fraction with a short deterministic pattern
	CallFrac    float64 // fraction of inner blocks ending in a call
	TripMean    int     // mean region trip count (geometric)
	// MajorityProb is the probability an ordinary biased branch goes its
	// majority direction (its predictability once the bimodal counters
	// train).
	MajorityProb float64
	// PhaseJumpEvery redirects control flow to a fresh region every N
	// instructions (program phase changes). 0 disables.
	PhaseJumpEvery int

	Seed uint64
}

// Ring is one controlled-gap reuse tier: Lines cache lines visited
// round-robin, selected with probability P per memory access, so each line
// recurs every Lines/P accesses on average.
type Ring struct {
	Lines int
	P     float64
}

// GapAccesses returns the ring's per-line reuse gap in memory accesses.
func (r Ring) GapAccesses() float64 {
	if r.P == 0 {
		return 0
	}
	return float64(r.Lines) / r.P
}

type branchKind uint8

const (
	brBiased branchKind = iota
	brFlaky
	brPattern
	brCall
)

type block struct {
	startPC  uint64
	len      int // instructions including the trailing CTI
	kind     branchKind
	minority float64 // P(non-majority direction) for biased/flaky
	pattern  uint8   // for brPattern: period in [2,8]
	patCount uint32
}

// frame is one level of the region walk: which region, the next block index
// within it, and the remaining trip count.
type frame struct {
	region int
	idx    int
	trips  int
}

// Generator produces the instruction stream for one profile.
type Generator struct {
	P   Profile
	rng *stats.RNG

	blocks     []block
	numRegions int
	regionLen  int
	codeZ      *stats.Zipf
	f          frame   // current walk frame
	stack      []frame // call stack
	pos        int     // position within current block

	hotPool []uint64
	farPool []uint64
	hotZ    *stats.Zipf
	farZ    *stats.Zipf

	rings   [][]uint64 // ring line pools
	ringPos []int      // round-robin cursors
	ringCum []float64  // cumulative selection probabilities

	nextLine uint64
	memCount int

	// spatial-run state
	runLeft int
	runAddr uint64

	// depGeom/runGeom are fixed-p fast geometric samplers (bit-identical
	// to rng.Geometric at the same p) for the two per-instruction draws.
	depGeom *stats.Geom
	runGeom *stats.Geom

	// Cached per-draw thresholds. The profile is immutable after
	// construction, so the cumulative op-class splits and the address
	// pool boundaries are precomputed rather than re-summed (and the
	// Profile struct re-copied) for every instruction.
	cumLoad, cumStore, cumMul, cumFP float64
	ringTop                          float64
	// churnLeft counts mem references down to the next pool churn,
	// replacing the per-reference modulo on memCount.
	churnLeft int

	instrCount uint64
	nextPhase  uint64
}

const (
	codeBase = 0x0000_1000
	dataBase = 0x4000_0000
	lineSize = 64
)

// NewGenerator builds a deterministic generator for p.
func NewGenerator(p Profile) *Generator {
	g := &Generator{P: p, rng: stats.NewRNG(p.Seed ^ 0x5eed)}
	g.buildCode()
	g.buildData()
	if p.DepP > 0 && p.DepP < 1 {
		g.depGeom = stats.NewGeom(g.rng, p.DepP)
	}
	if p.SpatialRun > 1 {
		g.runGeom = stats.NewGeom(g.rng, 1/p.SpatialRun)
	}
	if p.PhaseJumpEvery > 0 {
		g.nextPhase = uint64(p.PhaseJumpEvery)
	}
	g.cumLoad = p.LoadFrac
	g.cumStore = g.cumLoad + p.StoreFrac
	g.cumMul = g.cumStore + p.IntMulFrac
	g.cumFP = g.cumMul + p.FPFrac
	g.ringTop = p.PHot
	if n := len(g.ringCum); n > 0 {
		g.ringTop = g.ringCum[n-1]
	}
	g.churnLeft = p.ChurnPeriod
	return g
}

func (g *Generator) buildCode() {
	rl := g.P.RegionBlocks
	if rl < 3 {
		rl = 12
	}
	g.regionLen = rl
	g.numRegions = max(g.P.CodeBlocks/rl, 2)
	n := g.numRegions * rl
	g.blocks = make([]block, n)
	pc := uint64(codeBase)
	for i := range g.blocks {
		// Block length: BlockLen +/- a small spread, minimum 2.
		l := g.P.BlockLen + g.rng.Intn(3) - 1
		if l < 2 {
			l = 2
		}
		b := block{startPC: pc, len: l}
		r := g.rng.Float64()
		switch {
		case r < g.P.CallFrac:
			b.kind = brCall
		case r < g.P.CallFrac+g.P.FlakyFrac:
			b.kind = brFlaky
			b.minority = 0.3 + 0.2*g.rng.Float64() // 0.3-0.5
		case r < g.P.CallFrac+g.P.FlakyFrac+g.P.PatternFrac:
			b.kind = brPattern
			b.pattern = uint8(2 + g.rng.Intn(3)) // periods 2-4: GAg-learnable
		default:
			b.kind = brBiased
			m := 1 - g.P.MajorityProb
			b.minority = m * (0.6 + 0.8*g.rng.Float64())
			if b.minority > 0.49 {
				b.minority = 0.49
			}
		}
		g.blocks[i] = b
		pc += uint64(l * 4)
	}
	zs := g.P.CodeZipf
	if zs == 0 {
		zs = 0.7
	}
	g.codeZ = stats.NewZipf(g.rng, g.numRegions, zs)
	g.f = g.newVisit(g.codeZ.Next())
}

// newVisit starts a fresh visit of a region with a sampled trip count.
// Top-level visits iterate with mean TripMean; callee visits are a single
// pass, which keeps the call tree subcritical and keeps callee back-edges
// predictable (a short random trip count would make every call site an
// unpredictable loop exit).
func (g *Generator) newVisit(region int) frame {
	trips := 1
	if len(g.stack) == 0 {
		trips = 1 + g.rng.Geometric(1/float64(max(g.P.TripMean, 2)))
	}
	return frame{region: region, idx: 0, trips: trips}
}

// blockAt returns the block at index idx of the current frame's region.
func (g *Generator) blockAt(f frame) *block {
	return &g.blocks[f.region*g.regionLen+f.idx]
}

func (g *Generator) buildData() {
	p := g.P
	g.hotPool = make([]uint64, max(p.HotLines, 1))
	for i := range g.hotPool {
		g.hotPool[i] = g.allocLine()
	}
	g.farPool = make([]uint64, max(p.FarLines, 1))
	for i := range g.farPool {
		g.farPool[i] = g.allocLine()
	}
	g.hotZ = stats.NewZipf(g.rng, len(g.hotPool), p.HotZipf)
	g.farZ = stats.NewZipf(g.rng, len(g.farPool), p.FarZipf)

	cum := p.PHot
	for _, r := range p.Rings {
		pool := make([]uint64, max(r.Lines, 1))
		for i := range pool {
			pool[i] = g.allocLine()
		}
		g.rings = append(g.rings, pool)
		g.ringPos = append(g.ringPos, 0)
		cum += r.P
		g.ringCum = append(g.ringCum, cum)
	}
}

func (g *Generator) allocLine() uint64 {
	g.nextLine++
	return dataBase/lineSize + g.nextLine
}

// nextAddr produces the next data address.
func (g *Generator) nextAddr() uint64 {
	if g.runLeft > 0 {
		g.runLeft--
		g.runAddr += 8
		return g.runAddr
	}
	g.memCount++
	if g.P.ChurnPeriod > 0 {
		if g.churnLeft--; g.churnLeft == 0 {
			g.churn()
			g.churnLeft = g.P.ChurnPeriod
		}
	}
	var line uint64
	spatial := false
	r := g.rng.Float64()
	switch {
	case r < g.P.PHot:
		line = g.hotPool[g.hotZ.Next()]
	case r < g.ringTop:
		ri := 0
		for g.ringCum[ri] <= r {
			ri++
		}
		pool := g.rings[ri]
		line = pool[g.ringPos[ri]]
		g.ringPos[ri] = (g.ringPos[ri] + 1) % len(pool)
	case r < g.ringTop+g.P.PFar:
		// Far accesses are single touches; letting spatial runs walk
		// into neighbouring far lines would re-touch pool lines at
		// uncontrolled long gaps and blur the reuse-gap spectrum the
		// rings define.
		line = g.farPool[g.farZ.Next()]
	default:
		line = g.allocLine()
		spatial = true
	}
	addr := line*lineSize + uint64(g.rng.Intn(8))*8
	if spatial && g.P.SpatialRun > 1 {
		g.runLeft = g.runGeom.Next()
		g.runAddr = addr
	}
	return addr
}

// churn rotates a fraction of the hot pool and rings to fresh lines,
// creating a dead generation of the old ones.
func (g *Generator) churn() {
	f := g.P.ChurnFrac
	for i, n := 0, int(f*float64(len(g.hotPool))); i < n; i++ {
		g.hotPool[g.rng.Intn(len(g.hotPool))] = g.allocLine()
	}
	for ri := range g.rings {
		pool := g.rings[ri]
		for i, n := 0, int(f*float64(len(pool))); i < n; i++ {
			pool[g.rng.Intn(len(pool))] = g.allocLine()
		}
	}
}

// dep samples one source-dependence distance.
func (g *Generator) dep() int32 {
	if g.P.DepP <= 0 || g.rng.Bool(g.P.DepNoneFrac) {
		return 0
	}
	if g.depGeom != nil {
		return int32(1 + g.depGeom.Next())
	}
	return 1 // DepP >= 1: the chain distance degenerates to the minimum
}

// Next fills in the next instruction. The stream is unbounded.
func (g *Generator) Next(ins *Instr) {
	g.instrCount++
	if g.nextPhase != 0 && g.instrCount >= g.nextPhase {
		// Phase change: abandon the current loop nest for a fresh
		// region.
		g.nextPhase = g.instrCount + uint64(g.P.PhaseJumpEvery)
		g.stack = g.stack[:0]
		g.f = g.newVisit(g.codeZ.Next())
		g.pos = 0
	}
	b := g.blockAt(g.f)
	pc := b.startPC + uint64(g.pos*4)

	if g.pos == b.len-1 {
		// Trailing control transfer.
		g.emitCTI(ins, b, pc)
		return
	}
	g.pos++

	ins.PC = pc
	ins.Src1 = g.dep()
	ins.Src2 = g.dep()
	ins.Taken = false
	ins.Target = 0

	r := g.rng.Float64()
	switch {
	case r < g.cumLoad:
		ins.Op = OpLoad
		ins.Addr = g.nextAddr()
	case r < g.cumStore:
		ins.Op = OpStore
		ins.Addr = g.nextAddr()
	case r < g.cumMul:
		ins.Op = OpIntMul
		ins.Addr = 0
	case r < g.cumFP:
		if g.rng.Bool(0.3) {
			ins.Op = OpFPMul
		} else {
			ins.Op = OpFPALU
		}
		ins.Addr = 0
	default:
		ins.Op = OpIntALU
		ins.Addr = 0
	}
}

// emitCTI produces the block-ending control transfer and advances the
// region walk.
func (g *Generator) emitCTI(ins *Instr, b *block, pc uint64) {
	ins.PC = pc
	ins.Addr = 0
	ins.Src1 = g.dep()
	ins.Src2 = 0
	ins.Taken = false

	fallThru := b.startPC + uint64(b.len*4)

	if g.f.idx == g.regionLen-1 {
		// Region-ending back-edge (or exit).
		g.f.trips--
		if g.f.trips > 0 {
			// Loop back to the region head: mostly-taken,
			// predictable; the exit mispredicts.
			ins.Op = OpBranch
			ins.Taken = true
			g.f.idx = 0
			ins.Target = g.blockAt(g.f).startPC
		} else if n := len(g.stack); n > 0 {
			// Region done inside a call: return to the caller.
			ins.Op = OpReturn
			ins.Taken = true
			g.f = g.stack[n-1]
			g.stack = g.stack[:n-1]
			ins.Target = g.blockAt(g.f).startPC
		} else {
			// Top-level region done: move to the next region
			// (direct jump; target known at decode).
			ins.Op = OpJump
			ins.Taken = true
			g.f = g.newVisit(g.codeZ.Next())
			ins.Target = g.blockAt(g.f).startPC
		}
		g.pos = 0
		return
	}

	// Inner block.
	switch b.kind {
	case brCall:
		// Call probability halves per nesting level so the call tree
		// stays subcritical (a callee's blocks would otherwise spawn
		// more calls than they retire).
		if len(g.stack) < 12 && g.rng.Float64() < callDamp[min(len(g.stack), len(callDamp)-1)] {
			ins.Op = OpCall
			ins.Taken = true
			// Resume at the next block of this region on return.
			g.stack = append(g.stack, frame{region: g.f.region, idx: g.f.idx + 1, trips: g.f.trips})
			g.f = g.newVisit(g.codeZ.Next())
			ins.Target = g.blockAt(g.f).startPC
			g.pos = 0
			return
		}
		// Call depth capped: treat as a not-taken branch.
		ins.Op = OpBranch
	case brPattern:
		ins.Op = OpBranch
		b.patCount++
		ins.Taken = b.patCount%uint32(b.pattern) == 0
	default: // biased, flaky
		ins.Op = OpBranch
		ins.Taken = g.rng.Bool(b.minority)
	}

	if ins.Taken {
		// Forward skip of 1-3 blocks, clamped inside the region (the
		// region-ending block is a valid landing site).
		skip := 1 + g.rng.Intn(3)
		g.f.idx = min(g.f.idx+1+skip, g.regionLen-1)
		ins.Target = g.blockAt(g.f).startPC
	} else {
		g.f.idx++
		ins.Target = fallThru
	}
	g.pos = 0
}

// callDamp[d] is the probability a call block at stack depth d actually
// calls.
var callDamp = []float64{1, 0.5, 0.25, 0.12, 0.06, 0.03}

// Count returns the number of instructions generated so far.
func (g *Generator) Count() uint64 { return g.instrCount }
