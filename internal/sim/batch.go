package sim

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"hotleakage/internal/bpred"
	"hotleakage/internal/cpu"
	"hotleakage/internal/harness"
	"hotleakage/internal/harness/faultinject"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/obs"
	"hotleakage/internal/workload"
)

// runChunk is how many committed instructions a lane simulates per step:
// frequent enough that deadlines and cancellation bite within
// milliseconds, coarse enough that the checks are free. Every lane runs
// the same chunk sequence, so lanes of one group stay in lockstep and a
// cell's result does not depend on which group it rode.
const runChunk = 50_000

// frontSlack bounds how far past warm-up plus measurement a run reads its
// instruction source: the core's fetch-ahead (cpu.Core.Reach, about 100
// instructions on the Table 2 machine) plus the commit overshoot each
// chunk may add (at most CommitWidth-1, a few hundred over a run of
// millions) stay far below it, so a trace recorded frontSlack
// instructions longer than the run replays without wrapping.
const frontSlack = 4096

// obsFrontsFilled counts the shared fronts of lockstep groups (two or more
// lanes), one per group however often its window advances; a one-lane run
// is not counted. The counter keeps its historical name.
var obsFrontsFilled = obs.Default.Counter("sim_front_fill_live_total")

// BatchState is one executor's reusable scratch: the shared front window
// (about runChunk records, 1.8 MB, recycled across groups), the front's
// predictor, and one RunState per lane so every lane's machine
// components are reused run to run (cpu.Recycle / RunState.reuse reset
// them to pristine; the reuse parity tests pin this).
//
// A BatchState must not be shared between concurrently executing groups.
type BatchState struct {
	front   cpu.Front
	pred    *bpred.Predictor
	predCfg bpred.Config
	lanes   []*RunState
}

// batchLane is one cell riding a group: its spec and run settings going
// in, and either a result or an error coming out. A lane that fails is
// retried by the supervisor, which owns retry and fault-injection
// semantics.
type batchLane struct {
	sp runSpec
	// params overrides the cell's default leakage-control parameters
	// (nil = leakctl.DefaultParams(sp.tech, sp.interval)); adapter, when
	// non-nil, is installed on the controlled cache.
	params  *leakctl.Params
	adapter leakctl.Adapter
	// timeout bounds the time spent stepping this lane (0 = none). Only
	// this lane's own steps count, so a wide group cannot time out a cell
	// that a run on its own would finish.
	timeout time.Duration

	res RunResult
	err error
	// expired reports that err is the lane's own timeout firing: the lane
	// spent the cell's first attempt, and retrying it at once would only
	// pay the deadline again.
	expired bool
	// injectPanic arms a mid-batch injected panic: the lane panics on its
	// first execution round, after its batch-mates have started running.
	injectPanic bool
}

// laneRun is the per-lane execution bookkeeping inside a group: the
// assembled machine, the chunk budget of the current phase, the running
// stats and the time spent stepping.
type laneRun struct {
	ln     *batchLane
	m      machine
	params leakctl.Params
	// left counts committed instructions remaining in the current phase;
	// inWarmup selects which phase that is.
	left     uint64
	inWarmup bool
	cs       cpu.Stats
	spent    time.Duration
	done     bool
}

// step is the lane's next chunk.
func (lr *laneRun) step() uint64 { return min(runChunk, lr.left) }

// fail ends the lane with err, unless it already failed.
func (lr *laneRun) fail(err error) {
	if lr.ln.err == nil {
		lr.ln.err = err
	}
	lr.done = true
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

// fillFront starts the group's shared instruction stream from src. The
// first advance generates the records the lanes' first step reads. The
// window is sized for the longest step up front: grown from a short
// warm-up step to a full chunk, it would allocate twice per group.
func fillFront(bs *BatchState, mc MachineConfig, src cpu.InstrSource) {
	if bs.pred == nil || bs.predCfg != mc.Bpred {
		bs.pred = bpred.New(mc.Bpred)
		bs.predCfg = mc.Bpred
	} else {
		bs.pred.Reset()
	}
	bs.front.Fill(src, bs.pred, 0)
	step := min(runChunk, max(mc.Warmup, mc.Instructions))
	bs.front.Reserve(int(step + step/8))
}

// advanceFront slides the group's window over the next lockstep round:
// from the slowest live lane's fetch position to the furthest any live
// lane can fetch in its next step (cpu.Core.Reach), so the window holds
// one chunk and never reads the source further than a run needs. A panic
// while generating is returned as an error.
func advanceFront(f *cpu.Front, runnable []*laneRun) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("batch front advance: %v", r)
		}
	}()
	lo, hi := math.MaxInt, 0
	for _, lr := range runnable {
		if !lr.done {
			lo = min(lo, lr.m.core.FrontPos())
			hi = max(hi, lr.m.core.Reach(lr.step()))
		}
	}
	f.Advance(lo, hi)
	return nil
}

// runBatchGroup executes a group of cells of one (benchmark, machine
// config) off the benchmark's generator; see runGroup.
func runBatchGroup(ctx context.Context, mc MachineConfig, prof workload.Profile, lanes []*batchLane, inj faultinject.Injector, bs *BatchState) {
	runGroup(ctx, mc, prof.Name, workload.NewGenerator(prof), lanes, inj, bs)
}

// runGroup is the run loop: it simulates every lane — a variant of one
// stream on one machine — in lockstep off one shared front filled from
// src. Each lane advances by the same chunk sequence — warm-up in runChunk
// steps, the warm-up boundary resets, then the measurement window in
// runChunk steps — so a cell's result is the same in a group of any size,
// a group of one included. The stream is generated a window at a time,
// before each round. Lanes that fail (panic, injected fault, deadline,
// cancellation) carry the error out; batch-mates are unaffected.
func runGroup(ctx context.Context, mc MachineConfig, name string, src cpu.InstrSource, lanes []*batchLane, inj faultinject.Injector, bs *BatchState) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := mc.Validate(); err != nil {
		failLanes(lanes, fmt.Errorf("%w: %v", ErrInvalidConfig, err))
		return
	}
	if err := ctx.Err(); err != nil {
		failLanes(lanes, err)
		return
	}
	fillFront(bs, mc, src)
	if len(lanes) > 1 {
		obsFrontsFilled.Add(1)
	}
	for len(bs.lanes) < len(lanes) {
		bs.lanes = append(bs.lanes, new(RunState))
	}

	// Per-goroutine obs shard, flushed with batched deltas after every
	// chunk and merged on snapshot.
	sh := obs.Default.AcquireShard()
	defer sh.Release()

	runnable := make([]*laneRun, 0, len(lanes))
	for i, ln := range lanes {
		// Injection decisions are taken per lane up front (the batch lane
		// is one attempt, attempt 0). Panics are armed to fire mid-batch —
		// that is the failure mode worth proving isolation for; every other
		// fault kind is the supervisor's business, so the lane is bounced
		// there without running.
		if inj != nil {
			switch d := inj.Decide(ln.sp.key(), 0); d {
			case faultinject.FaultNone:
			case faultinject.FaultPanic:
				ln.injectPanic = true
			default:
				ln.err = fmt.Errorf("faultinject: %s scheduled for %s, deferring to the supervisor", d, ln.sp.key())
				continue
			}
		}
		params := leakctl.DefaultParams(ln.sp.tech, ln.sp.interval)
		if ln.params != nil {
			params = *ln.params
		}
		if err := params.Validate(); err != nil {
			ln.err = fmt.Errorf("%w: %v", ErrInvalidConfig, err)
			continue
		}
		m, err := assemble(mc, params, ln.adapter, bs.lanes[i])
		if err != nil {
			ln.err = err
			continue
		}
		m.core.AttachFront(&bs.front)
		lr := &laneRun{ln: ln, m: m, params: params, left: mc.Instructions}
		if mc.Warmup > 0 {
			lr.inWarmup, lr.left = true, mc.Warmup
		}
		runnable = append(runnable, lr)
	}

	// Lockstep rounds: every live lane executes one chunk per round, so
	// the group marches through the shared front together and a fault in
	// one lane surfaces while its batch-mates are mid-flight.
	active := len(runnable)
	for active > 0 {
		if err := advanceFront(&bs.front, runnable); err != nil {
			for _, lr := range runnable {
				if !lr.done {
					lr.fail(err)
				}
			}
			break
		}
		for _, lr := range runnable {
			if lr.done {
				continue
			}
			stepLane(ctx, mc, name, sh, lr)
			if lr.done {
				active--
			}
		}
	}
}

// stepLane advances one lane by one chunk (and across the warm-up
// boundary or to its result when the chunk ends a phase), recovering
// panics into the lane's error.
func stepLane(ctx context.Context, mc MachineConfig, name string, sh *obs.Shard, lr *laneRun) {
	defer func() {
		if r := recover(); r != nil {
			lr.fail(&harness.PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())})
		}
	}()
	if err := ctx.Err(); err != nil {
		lr.fail(err)
		return
	}
	if t := lr.ln.timeout; t > 0 && lr.spent >= t {
		lr.fail(fmt.Errorf("%w: lane ran %v of its %v", context.DeadlineExceeded, lr.spent.Round(time.Millisecond), t))
		lr.ln.expired = true
		return
	}
	if lr.ln.injectPanic {
		lr.ln.injectPanic = false
		panic(fmt.Sprintf("faultinject: injected panic into %s (batch lane)", lr.ln.sp.key()))
	}
	start := time.Now()
	step := lr.step()
	lr.cs = lr.m.core.Run(step)
	lr.m.flush(sh)
	lr.left -= step
	lr.spent += time.Since(start)
	if lr.left > 0 {
		return
	}
	if lr.inWarmup {
		lr.m.resetStats()
		lr.inWarmup, lr.left = false, mc.Instructions
		return
	}
	lr.done = true
	res := lr.m.result(mc, name, lr.params, lr.cs)
	if err := checkRun(res); err != nil {
		// Same acceptance bar as the supervisor's Check hook; a rejected
		// result is retried by the supervisor.
		lr.fail(err)
		return
	}
	lr.ln.res = res
}
