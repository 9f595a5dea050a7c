package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"hotleakage/internal/bpred"
	"hotleakage/internal/cpu"
	"hotleakage/internal/energy"
	"hotleakage/internal/harness"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/workload"
)

// frontSlack is how many instructions a shared stream extends past
// warmup+measure, and how far the front's window reaches past the fastest
// lane's next chunk. The core fetches ahead of commit by at most the RUU
// window plus the fetch buffer (~100 instructions with the Table 2
// machine); the slack is set far above that bound, and a lane that
// nevertheless leaves the window panics inside cpu.Front, which stepLane
// recovers into a lane failure that re-runs on the scalar path.
const frontSlack = 4096

// obsFrontsFilled counts lockstep groups' shared front fills, all of them
// generated live, one per group however many times its window advances;
// the counter keeps its historical name.
var obsFrontsFilled = obs.Default.Counter("sim_front_fill_live_total")

// BatchState is one batch-executor goroutine's reusable scratch: the
// shared front window (about runChunk+frontSlack records, 3 MB, recycled
// across groups), the front's predictor, and one RunState per lane so
// every lane's machine components are reused run-to-run exactly like the
// scalar workers' (cpu.Recycle / RunState.reuse reset them to pristine;
// the reuse parity tests cover the batch fields too).
//
// A BatchState must not be shared between concurrently executing groups.
type BatchState struct {
	front   cpu.Front
	pred    *bpred.Predictor
	predCfg bpred.Config
	lanes   []*RunState
}

// batchLane is one cell riding a lockstep group: its spec going in, and
// either a result or an error (any error sends the cell back to the
// scalar supervisor path, which owns retry/timeout/injection semantics)
// coming out.
type batchLane struct {
	sp  runSpec
	res RunResult
	dur time.Duration
	err error
	// injectPanic arms a mid-batch injected panic: the lane panics on its
	// first execution round, after its batch-mates have started running.
	injectPanic bool
}

// laneRun is the per-lane execution bookkeeping inside a group: the
// assembled machine, the chunk budget of the current phase, and the
// running stats.
type laneRun struct {
	ln     *batchLane
	m      machine
	params leakctl.Params
	flush  func()
	// left counts committed instructions remaining in the current phase;
	// inWarmup selects which phase that is.
	left     uint64
	inWarmup bool
	cs       cpu.Stats
	done     bool
}

// failLanes marks every lane failed with err (called before any lane has
// started executing).
func failLanes(lanes []*batchLane, err error) {
	for _, ln := range lanes {
		if ln.err == nil {
			ln.err = err
		}
	}
}

// fillFront starts the group's shared instruction stream from a live
// generator and makes its first n positions resident. A panic during fill
// is returned as an error.
func fillFront(bs *BatchState, mc MachineConfig, prof workload.Profile, n uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batch front fill: %v", r)
		}
	}()
	if bs.pred == nil || bs.predCfg != mc.Bpred {
		bs.pred = bpred.New(mc.Bpred)
		bs.predCfg = mc.Bpred
	} else {
		bs.pred.Reset()
	}
	bs.front.Fill(workload.NewGenerator(prof), bs.pred, n)
	obsFrontsFilled.Add(1)
	return nil
}

// advanceFront slides the group's window over the next lockstep round:
// from the slowest live lane's fetch position to a chunk plus frontSlack
// past the fastest one's, capped at the stream's end n. A lane commits at
// most one chunk per round and fetches fewer than frontSlack instructions
// ahead of commit, so no live lane leaves the window before the next
// advance. A panic while generating is returned as an error.
func advanceFront(f *cpu.Front, runnable []*laneRun, n uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batch front advance: %v", r)
		}
	}()
	lo, hi := math.MaxInt, 0
	for _, lr := range runnable {
		if !lr.done {
			pos := lr.m.core.FrontPos()
			lo, hi = min(lo, pos), max(hi, pos)
		}
	}
	f.Advance(lo, min(hi+runChunk+frontSlack, int(n)))
	return nil
}

// runBatchGroup executes a group of technique/interval variants of one
// (benchmark, machine config) in lockstep off one shared front. Each lane
// advances by exactly the scalar path's chunk sequence — warmup in
// runChunk steps, the runOneFromState warmup-boundary resets, then the
// measurement window in runChunk steps — so a lane's Run-call sequence is
// literally the one runCommitted would have issued and the results are
// bit-identical to scalar execution. The shared stream is generated a
// window at a time: the first chunk up front, then the next one before
// each round. Lanes that fail (panic, injected fault, cancellation) carry
// the error out; batch-mates are unaffected.
func runBatchGroup(ctx context.Context, mc MachineConfig, prof workload.Profile, lanes []*batchLane, inj faultinject.Injector, bs *BatchState) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if err := mc.Validate(); err != nil {
		failLanes(lanes, fmt.Errorf("%w: %v", ErrInvalidConfig, err))
		return
	}
	n := mc.Warmup + mc.Instructions + frontSlack
	if err := fillFront(bs, mc, prof, min(runChunk+frontSlack, n)); err != nil {
		failLanes(lanes, err)
		return
	}
	for len(bs.lanes) < len(lanes) {
		bs.lanes = append(bs.lanes, new(RunState))
	}

	// Per-goroutine obs shard, exactly like a scalar worker's run.
	sh := obs.Default.AcquireShard()
	defer sh.Release()

	runnable := make([]*laneRun, 0, len(lanes))
	for i, ln := range lanes {
		// Injection decisions are taken per lane up front (the batch lane
		// is one attempt, attempt 0). Panics are armed to fire mid-batch —
		// that is the failure mode worth proving isolation for; every other
		// fault kind is the scalar supervisor's business, so the lane is
		// bounced there without running.
		if inj != nil {
			switch d := inj.Decide(ln.sp.key(), 0); d {
			case faultinject.FaultNone:
			case faultinject.FaultPanic:
				ln.injectPanic = true
			default:
				ln.err = fmt.Errorf("faultinject: %s scheduled for %s, deferring to scalar execution", d, ln.sp.key())
				continue
			}
		}
		params := leakctl.DefaultParams(ln.sp.tech, ln.sp.interval)
		if err := params.Validate(); err != nil {
			ln.err = fmt.Errorf("%w: %v", ErrInvalidConfig, err)
			continue
		}
		// The core never touches its instruction source in replay mode, so
		// the lane machine assembles with a nil source.
		m, err := assemble(mc, nil, params, nil, bs.lanes[i])
		if err != nil {
			ln.err = err
			continue
		}
		m.core.AttachFront(&bs.front)
		lr := &laneRun{ln: ln, m: m, params: params, inWarmup: mc.Warmup > 0}
		if lr.inWarmup {
			lr.left = mc.Warmup
		} else {
			lr.left = mc.Instructions
		}
		lr.flush = func() {
			m.core.ObsFlush(sh)
			m.dl1.ObsFlush(sh)
			m.l2.ObsFlush(sh)
			m.il1Plain.ObsFlush(sh)
		}
		runnable = append(runnable, lr)
	}

	// Lockstep rounds: every live lane executes one chunk per round, so
	// the group marches through the shared front together and a fault in
	// one lane surfaces while its batch-mates are mid-flight.
	active := len(runnable)
	for active > 0 {
		if err := advanceFront(&bs.front, runnable, n); err != nil {
			for _, lr := range runnable {
				if !lr.done {
					lr.ln.err = err
					lr.done = true
				}
			}
			break
		}
		for _, lr := range runnable {
			if lr.done {
				continue
			}
			stepLane(ctx, mc, prof, lr)
			if lr.done {
				active--
			}
		}
	}

	// Cost attribution for the EWMA model: the group's wall time (shared
	// front fill included) split evenly across the lanes that produced a
	// result — per-lane duration is what the model expects to see.
	wall := time.Since(start)
	ok := 0
	for _, ln := range lanes {
		if ln.err == nil {
			ok++
		}
	}
	if ok > 0 {
		per := wall / time.Duration(ok)
		for _, ln := range lanes {
			if ln.err == nil {
				ln.dur = per
			}
		}
	}
}

// stepLane advances one lane by one chunk (or phase boundary), recovering
// panics into the lane's error.
func stepLane(ctx context.Context, mc MachineConfig, prof workload.Profile, lr *laneRun) {
	defer func() {
		if r := recover(); r != nil {
			lr.ln.err = &harness.PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
			lr.done = true
		}
	}()
	if err := ctx.Err(); err != nil {
		lr.ln.err = err
		lr.done = true
		return
	}
	if lr.ln.injectPanic {
		lr.ln.injectPanic = false
		panic(fmt.Sprintf("faultinject: injected panic into %s (batch lane)", lr.ln.sp.key()))
	}
	step := uint64(runChunk)
	if lr.left < step {
		step = lr.left
	}
	lr.cs = lr.m.core.Run(step)
	lr.flush()
	lr.left -= step
	if lr.left > 0 {
		return
	}
	if lr.inWarmup {
		// The warmup boundary: the same reset set, in the same order, as
		// runOneFromState (the lane's private predictor is idle in replay
		// mode — the core's BP mirror is what ResetStats zeroes).
		m := lr.m
		m.core.ResetStats()
		m.l2.ResetStats()
		m.mem.ResetStats()
		m.pred.ResetStats()
		m.dl1.ResetStats(m.core.Now())
		m.il1Plain.ResetStats()
		lr.inWarmup = false
		lr.left = mc.Instructions
		return
	}
	finishLane(mc, prof, lr)
	lr.done = true
}

// finishLane assembles the lane's RunResult exactly as runOneFromState
// does, with the core's replay-accumulated BP standing in for the scalar
// path's predictor stats.
func finishLane(mc MachineConfig, prof workload.Profile, lr *laneRun) {
	m, cs := lr.m, lr.cs
	m.dl1.Finish(m.core.Now())
	meas := energy.RunMeasurement{
		Cycles:            cs.Cycles,
		Instructions:      cs.Instructions,
		StandbyLineCycles: m.dl1.StandbyLineCycles(),
		DCacheDynJ:        m.dl1.Energy.Total(),
		L2DynJ:            m.l2.DynJ,
		MemDynJ:           m.mem.DynJ,
		ICacheDynJ:        m.il1Plain.DynJ,
		ClockJ: float64(cs.Cycles) * (m.dl1.AccessE.PerCycleClock +
			mc.Tech.ChipBackgroundW/mc.Tech.ClockHz),
		DStats: m.dl1.Stats,
	}
	lr.ln.res = RunResult{
		Bench:       prof.Name,
		Params:      lr.params,
		CPU:         cs,
		DStats:      m.dl1.Stats,
		L2Stats:     m.l2.Stats,
		ICStats:     m.il1Plain.Stats,
		Bpred:       m.core.BP,
		TurnoffRat:  m.dl1.TurnoffRatio(),
		Measurement: meas,
	}
	if err := checkRun(lr.ln.res); err != nil {
		// Same acceptance bar as the supervisor's Check hook; a rejected
		// result re-runs on the scalar path where retry semantics apply.
		lr.ln.res = RunResult{}
		lr.ln.err = err
	}
}
