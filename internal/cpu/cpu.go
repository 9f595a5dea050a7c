// Package cpu is the execution-timing substrate: a simplified 4-wide
// out-of-order machine in the sim-outorder tradition, configured per the
// paper's Table 2 (80-entry RUU, 40-entry LSQ, the 21264-like FU mix,
// hybrid branch predictor with a 1K-entry 2-way BTB, 64 KB 2-way L1s, a
// unified 2 MB L2 and 100-cycle memory).
//
// The model exists to reproduce the first-order effect the paper's argument
// rests on: an aggressive out-of-order window overlaps independent work
// with outstanding misses, so "modest L2 access latencies for induced
// misses can be tolerated". Instructions come from a Front, a window onto
// the instruction stream with the predictor outcomes precomputed
// (front.go); wrong-path execution is approximated by stalling fetch from
// a mispredicted branch until it resolves (standard trace-driven
// treatment).
//
// The cycle loop is event-driven: cycles on which the machine provably
// cannot change state (everything in flight is waiting on a miss, a decay
// rollover, or a fetch stall) are skipped in one jump rather than executed
// one by one. The fast-forward is bit-identical to strict cycle-by-cycle
// execution — see Core.fastForward for the invariant and
// Core.DisableFastForward for the reference path tests compare against.
//
// The RUU is stored struct-of-arrays: each per-entry field (producer seqs,
// address, ready time, scheduler links, waiter chains, op class) lives in
// its own dense parallel array rather than one 64-byte struct per entry.
// Every stage walk touches only the fields it needs — dispatch reads the
// producer arrays, issue the op/address arrays, the wheel the link array —
// so the per-slot hot footprint shrinks and N lockstep lanes stepping the
// same chunk stop dragging each other's unrelated fields through the cache.
// Fetched instructions are decoded straight into their ring slot (the
// seq->slot mapping is fixed at fetch time and the ring is sized so a
// pending slot can never alias an in-flight one), which removes the old
// intermediate fetch buffer and its per-instruction struct copies entirely:
// the fetch->dispatch queue is just the seq interval [tail, nextSeq).
package cpu

import (
	"fmt"
	"math/bits"
	"time"

	"hotleakage/internal/bpred"
	"hotleakage/internal/leakctl"
	"hotleakage/internal/workload"
)

// Config sizes the core.
type Config struct {
	FetchWidth  int
	DecodeWidth int
	IssueWidth  int
	CommitWidth int
	RUUSize     int
	LSQSize     int
	IntALUs     int
	IntMulDivs  int
	FPALUs      int
	FPMulDivs   int
	MemPorts    int
	// MSHRs bounds the number of outstanding L1 D-cache misses; a load
	// that needs a miss slot when all are busy waits (0 = unlimited).
	MSHRs int
	// MispredictPen is the front-end refill penalty added after a
	// mispredicted branch resolves.
	MispredictPen int
	// ScanLimit caps how many un-issued RUU entries the scheduler
	// examines per cycle (a real scheduler's select logic is similarly
	// bounded).
	ScanLimit int
}

// DefaultConfig is the paper's Table 2 machine.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    4,
		DecodeWidth:   4,
		IssueWidth:    4,
		CommitWidth:   4,
		RUUSize:       80,
		LSQSize:       40,
		IntALUs:       4,
		IntMulDivs:    1,
		FPALUs:        2,
		FPMulDivs:     1,
		MemPorts:      2,
		MSHRs:         8,
		MispredictPen: 3,
		ScanLimit:     32,
	}
}

// Validate rejects degenerate core configurations (zero-wide pipelines,
// empty windows, a scheduler that examines no entry, an op class with no
// functional unit) that would deadlock or never commit an instruction.
func (c Config) Validate() error {
	if c.FetchWidth < 1 || c.DecodeWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1 {
		return fmt.Errorf("cpu: pipeline widths must be >= 1 (fetch %d, decode %d, issue %d, commit %d)",
			c.FetchWidth, c.DecodeWidth, c.IssueWidth, c.CommitWidth)
	}
	if c.RUUSize < 1 || c.LSQSize < 1 {
		return fmt.Errorf("cpu: window sizes must be >= 1 (RUU %d, LSQ %d)", c.RUUSize, c.LSQSize)
	}
	// Every op class the workloads emit needs a unit: a ready op with an
	// empty pool never issues, and commit waits on it forever.
	if c.IntALUs < 1 || c.IntMulDivs < 1 || c.FPALUs < 1 || c.FPMulDivs < 1 || c.MemPorts < 1 {
		return fmt.Errorf("cpu: every functional-unit pool must be >= 1 (int ALUs %d, int mul/div %d, FP ALUs %d, FP mul/div %d, memory ports %d)",
			c.IntALUs, c.IntMulDivs, c.FPALUs, c.FPMulDivs, c.MemPorts)
	}
	if c.ScanLimit < 1 {
		return fmt.Errorf("cpu: scan limit must be >= 1 (got %d): the scheduler would examine no entry", c.ScanLimit)
	}
	if c.MSHRs < 0 || c.MispredictPen < 0 {
		return fmt.Errorf("cpu: negative MSHRs/penalty")
	}
	return nil
}

// Functional-unit pools. The issue loop selects an op's pool and latency by
// table lookup — the op mix is random, so a multiway branch on the class
// mispredicted constantly.
const (
	fuIntALU = iota
	fuIntMul
	fuFPALU
	fuFPMul
	fuMem
	numFU
)

// fuClassTab and latTab are indexed by OpClass (masked to table size; CTIs
// and anything unknown execute on an integer ALU with latency 1).
var fuClassTab = [16]uint8{
	workload.OpIntALU: fuIntALU,
	workload.OpIntMul: fuIntMul,
	workload.OpFPALU:  fuFPALU,
	workload.OpFPMul:  fuFPMul,
	workload.OpLoad:   fuMem,
	workload.OpStore:  fuMem,
}

var latTab = [16]uint64{
	workload.OpIntMul: 4,
	workload.OpFPALU:  2,
	workload.OpFPMul:  4,
}

// memTab marks the ops that hold an LSQ entry and access the D-cache:
// dispatch adds it to the LSQ count and issue sets it as done's memory bit.
// ctiTab marks control transfers, which fetch counts as branches.
var (
	memTab = [16]uint8{workload.OpLoad: 1, workload.OpStore: 1}
	ctiTab = [16]uint8{workload.OpBranch: 1, workload.OpCall: 1, workload.OpReturn: 1, workload.OpJump: 1}
)

func init() {
	// Everything else — ALU ops, CTIs, memory ops (a load's latency is
	// the cache's; a store's stays 1), padding slots — takes latency 1.
	for i, v := range latTab {
		if v == 0 {
			latTab[i] = 1
		}
	}
}

// Stats is the core's run summary.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64
	FetchStallCy uint64
	ICacheStalls uint64
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// InstrSource supplies the instruction stream, a live workload.Generator.
type InstrSource interface {
	Next(*workload.Instr)
}

// FetchCache is the instruction-cache contract: a plain cache.Cache or a
// leakage-controlled leakctl.DCache both satisfy it, which is how the
// I-cache leakage-control extension plugs in. Tick does real work only on
// scheduled cycles (decay rollovers, adapter consultations); NextTickEvent
// returns the next such cycle, or never for a cache whose Tick is a no-op,
// and the core skips the Tick call on every other cycle.
type FetchCache interface {
	Access(addr uint64, write bool, cycle uint64) int
	HitLat() int
	Tick(cycle uint64)
	NextTickEvent() uint64
}

// never is the "no scheduled event" sentinel cycle.
const never = ^uint64(0)

// notIssued marks a done-array slot whose occupant has not issued yet.
const notIssued = ^uint64(0)

// Pipeline-stage indices for the sampled ns attribution (see Run).
const (
	stageTick = iota
	stageCommit
	stageIssue
	stageDispatch
	stageFetch
	numStage
)

// stageSampleMask selects which cycles get per-stage wall-clock timing:
// cycle numbers with the masked bits zero, i.e. 1 in 1024. Sampling keys
// off the deterministic cycle counter, so which simulated cycles are
// sampled is identical across variants and runs, and the per-cycle cost on
// unsampled cycles is one AND and one predictable branch.
const stageSampleMask = 1023

// Core wires the instruction stream and memory hierarchy together.
type Core struct {
	Cfg    Config
	ICache FetchCache
	DCache *leakctl.DCache
	Stats  Stats

	// obsPrev is the Stats value at the last ObsFlush; deltas against it
	// are what the observability counters receive. Rebased by ResetStats so
	// warmup work is not double-counted.
	obsPrev Stats

	// DisableFastForward forces strict cycle-by-cycle execution — the
	// reference behaviour the event-driven loop must match bit for bit.
	// Tests flip it to prove identity; production runs leave it false.
	DisableFastForward bool

	// The RUU ring, struct-of-arrays. All arrays share one length: the
	// next power of two >= RUUSize + 3*FetchWidth, so slot lookup is a
	// mask and a fetched-but-undispatched slot (the [tail, nextSeq)
	// interval, at most 3*FetchWidth-1 long) can never alias an in-flight
	// one ([head, tail), at most RUUSize long).
	//
	// src1/src2 hold producer seqs (0 = none; seqs start at 1), addr the
	// memory address, ops the op class — all written at fetch time, when
	// the instruction is decoded straight into its slot. readyAt is the
	// cycle both producers' values are available, written when an entry
	// is filed into the wake wheel (the only reader); a producer's
	// completion time is immutable once it issues, so the value is final
	// when first derived. link chains a slot through whichever scheduler
	// structure it currently waits in: a producer's waiter chain (ready
	// time unknown) or a wake-wheel slot (ready time known and in the
	// future) — the states are mutually exclusive, so one array serves
	// both. waiters heads the chain of dispatched entries whose ready time
	// becomes computable when this slot's occupant issues.
	src1     []uint64
	src2     []uint64
	addr     []uint64
	readyAt  []uint64
	link     []uint64
	waiters  []uint64
	ops      []workload.OpClass
	ringMask uint64
	head     uint64 // oldest in-flight seq
	tail     uint64 // one past the youngest dispatched seq
	// The scheduler is event-driven: instead of rescanning the window
	// every cycle, each dispatched entry's ready time is derived once —
	// at dispatch if both producers have issued, otherwise when the
	// producer it waits on issues (waiter chains) — and the entry is
	// filed by that cycle. The per-cycle work is then one wheel-slot pop
	// plus a walk of the ready set, rather than a ScanLimit-bounded scan
	// over mostly unready entries.
	//
	// rdyb is a bitmap over ring slots marking the un-issued entries
	// whose operands are available — exactly the entries the reference
	// scan would find ready — and rdyN its population. Issue walks its
	// set bits in ring order from head's slot, which is age order: the
	// window never wraps the ring.
	rdyb []uint64
	rdyN int
	// nextb is the fast lane for the dominant wake distance: entries
	// whose ready time is exactly the next cycle (single-cycle producers
	// issue and wake dependents for cycle+1 constantly), nextN its
	// population. They skip the wheel's chain-link stores and reloads;
	// the next cycle's pop ORs the bitmap into rdyb. The next cycle can
	// never be fast-forwarded over: a ready time of now+1 implies a
	// producer with doneAt >= now+1 is still in flight, which bounds the
	// jump.
	nextb []uint64
	nextN int
	// wheel[t & wheelMask] heads a chain (through link) of entries whose
	// readyAt is t modulo the wheel size; entries from a later lap are
	// re-filed on pop. Wakes can never land inside a fast-forwarded
	// region: a future readyAt always equals the doneAt of an in-flight
	// producer, which bounds the fast-forward jump. A fixed-size array
	// (the size is a compile-time constant) lets masked indexing skip
	// the bounds check.
	wheel [wheelSize]uint64
	// wheelCount tracks entries currently filed in the wheel so the
	// per-cycle slot probe is skipped while the wheel is empty — the
	// usual state now that next-cycle wakes bypass it.
	wheelCount int
	// unb is a bitmap over ring slots marking un-issued entries, and
	// unissued its total. A popcount over the ring-order interval from
	// head's slot gives each ready entry's rank among all un-issued
	// entries — the reference scan's "scanned" position — so the
	// ScanLimit cutoff applies to exactly the same entries without
	// walking the window.
	unb      []uint64
	unissued int
	// done packs each slot's completion state into one word:
	// notIssued while the occupant has not issued, else doneAt<<1 with
	// bit 0 flagging a memory op (for commit's LSQ release). A dense
	// word per slot keeps the done-yet walks — commit, readyTime,
	// fastForward — at eight slots per cache line.
	done []uint64

	lsqUsed int
	// mshrBusy holds the completion times of outstanding D-cache misses
	// in a fixed MSHRs-long array (mshrLen tracks occupancy), so the
	// issue path never allocates or stores a slice header.
	mshrBusy []uint64
	mshrLen  int

	fetchStall    uint64 // first cycle fetch may run again
	pendingBranch uint64 // seq of an unresolved mispredicted branch (0 = none)

	nextSeq uint64
	now     uint64 // global cycle counter, persists across Run calls

	// Tick scheduling: dcNext/icNext cache the caches' next scheduled
	// tick event so the per-cycle loop is two compares instead of two
	// interface calls.
	dcNext uint64
	icNext uint64
	// fuBlocked records that a ready instruction was denied a functional
	// unit this cycle: the machine is stalled on structural hazards that
	// clear by themselves next cycle, so the cycle is not skippable.
	fuBlocked bool

	// Sampled per-stage attribution: on cycles selected by
	// stageSampleMask, each pipeline stage's wall-clock ns accumulate in
	// stageNS and stageSampled counts the sampled cycles. Plain counters,
	// flushed (with deltas, never atomics) by ObsFlush.
	stageNS      [numStage]uint64
	stageSampled uint64
	obsPrevStage [numStage]uint64
	obsPrevSamp  uint64

	// front is the window fetch reads the stream from, and frontPos this
	// core's read position in it. A core built over a source owns its
	// window (own) and slides it whenever fetch runs off its end; a window
	// attached with AttachFront belongs to whoever attached it, which
	// keeps the core's next reads resident (see Reach).
	front    *Front
	frontPos int
	own      bool

	// BP is the predictor's statistics for this core's run, accumulated
	// from the stream's recorded deltas. The front's predictor runs ahead
	// of fetch (and, on a shared window, serves every lane), so its own
	// Stats are not this run's. ResetStats zeroes BP at the warm-up
	// boundary.
	BP bpred.Stats
}

// ownWindow is how many records a core that owns its window generates
// each time fetch runs off the window's end.
const ownWindow = 4096

// wheelSize is the wake wheel's span in cycles (power of two). Latencies
// longer than a lap are handled by re-filing on pop, so the size only
// trades memory against the rare-lap cost.
const wheelSize = 1024

// New builds a core over the given instruction source, predictor and
// hierarchy. With a non-nil source the core owns a window onto that
// source's stream, predicted through pred, and slides it as it fetches. A
// nil source leaves the core without a stream until AttachFront.
func New(cfg Config, src InstrSource, pred *bpred.Predictor, ic FetchCache, dc *leakctl.DCache) *Core {
	// Ring capacity: the in-flight window (RUUSize) plus the maximum
	// fetched-but-undispatched backlog (fetch adds up to FetchWidth while
	// the backlog is below 2*FetchWidth), rounded up to a power of two.
	ringLen := 1
	for ringLen < cfg.RUUSize+3*cfg.FetchWidth {
		ringLen <<= 1
	}
	words := (ringLen + 63) / 64
	c := &Core{
		Cfg:      cfg,
		ICache:   ic,
		DCache:   dc,
		src1:     make([]uint64, ringLen),
		src2:     make([]uint64, ringLen),
		addr:     make([]uint64, ringLen),
		readyAt:  make([]uint64, ringLen),
		link:     make([]uint64, ringLen),
		waiters:  make([]uint64, ringLen),
		ops:      make([]workload.OpClass, ringLen),
		ringMask: uint64(ringLen - 1),
		rdyb:     make([]uint64, words),
		nextb:    make([]uint64, words),
		unb:      make([]uint64, words),
		done:     make([]uint64, ringLen),
		nextSeq:  1,
		head:     1,
		tail:     1,
	}
	if cfg.MSHRs > 0 {
		c.mshrBusy = make([]uint64, cfg.MSHRs)
	}
	if src != nil {
		c.front, c.own = new(Front), true
		c.front.Fill(src, pred, 0)
	}
	return c
}

// readyTime returns the earliest cycle at which producer seq's value is
// available, and whether that time is known yet (false while the producer
// sits in the window un-issued). For a known producer the result never
// changes afterwards: the completion time is fixed at issue, and a
// producer that later commits was by definition done at commit time.
// Producers are always strictly older than their consumer, so no caller
// can pass one at or past the tail. No dependence (producer 0) needs no
// test of its own: head is at least 1, so it reads as committed, and a
// committed producer selects 0 rather than its slot's new occupant.
func readyTime(done []uint64, mask, head, producer uint64) (uint64, bool) {
	d := done[producer&mask]
	if producer < head {
		d = 0
	}
	return d >> 1, d != notIssued
}

// popRange counts un-issued entries in ring slots [a, b), a <= b.
func (c *Core) popRange(a, b uint64) int {
	unb := c.unb
	wa, wb := a>>6, b>>6
	_ = unb[wb] // hoist the bounds check off the loop below (wb is the largest index)
	loMask := ^(uint64(1)<<(a&63) - 1)
	hiMask := uint64(1)<<(b&63) - 1
	if wa == wb {
		return bits.OnesCount64(unb[wa] & loMask & hiMask)
	}
	t := bits.OnesCount64(unb[wa] & loMask)
	for w := wa + 1; w < wb; w++ {
		t += bits.OnesCount64(unb[w])
	}
	return t + bits.OnesCount64(unb[wb]&hiMask)
}

// rank counts un-issued entries older than seq — the zero-based position
// the reference scan would examine seq at. The window never wraps more
// than once around the ring, so age order is ring order starting at head's
// slot.
func (c *Core) rank(seq uint64) int {
	hs := c.head & c.ringMask
	ss := seq & c.ringMask
	if ss >= hs {
		return c.popRange(hs, ss)
	}
	return c.unissued - c.popRange(ss, hs)
}

// wheelInsert files seq to wake at cycle at.
func (c *Core) wheelInsert(seq, at uint64) {
	i := at & (wheelSize - 1)
	c.link[seq&c.ringMask] = c.wheel[i]
	c.wheel[i] = seq
	c.wheelCount++
}

// popWheel moves the fast lane and the current cycle's wheel slot into the
// ready set, re-filing wheel entries whose readyAt is a whole lap (or more)
// away.
func (c *Core) popWheel() {
	if c.nextN != 0 {
		// Everything in the fast lane was filed last cycle for exactly
		// this one; no readyAt check needed.
		rdyb := c.rdyb
		for i, w := range c.nextb {
			rdyb[i] |= w
		}
		clear(c.nextb)
		c.rdyN += c.nextN
		c.nextN = 0
	}
	if c.wheelCount == 0 {
		return
	}
	wi := c.now & (wheelSize - 1)
	s := c.wheel[wi]
	if s == 0 {
		return
	}
	c.wheel[wi] = 0
	link := c.link
	readyAt := c.readyAt
	mask := c.ringMask
	for s != 0 {
		i := s & mask
		nxt := link[i]
		if readyAt[i] == c.now {
			c.rdyb[i>>6] |= 1 << (i & 63)
			c.rdyN++
			c.wheelCount--
		} else {
			// A later lap: keep it in the same slot (readyAt is
			// congruent to this cycle modulo the wheel size).
			link[i] = c.wheel[wi]
			c.wheel[wi] = s
		}
		s = nxt
	}
}

// Scheduling — deriving an entry's ready time if both producers have
// issued and filing it into the ready set, fast lane or wheel, or parking
// it on the first still-unknown producer's waiter chain — is inlined at
// its two call sites (dispatch and wakeWaiters) to reuse their loop
// locals: a call per filed entry is a measurable share of both. Filing
// order never matters: the ready set is a bitmap, and the order of a
// wheel slot or a waiter chain only permutes a later batch of filings. An
// entry dispatched ready (by this cycle or the next) goes straight into
// the ready set, becoming examinable next cycle, exactly when the
// reference scan would first see it ready.

// wakeWaiters re-schedules every entry that was waiting on the producer in
// slot ps, which has just issued at cycle. Each either files for the next
// cycle or into the wheel (its ready time, at least the producer's
// completion, is now known and strictly in the future — so no entry joins
// the ready set issue is walking) or moves to its other, still-unknown
// producer's chain.
func (c *Core) wakeWaiters(ps uint64, cycle uint64) {
	link := c.link
	mask := c.ringMask
	done := c.done
	head := c.head
	src1, src2 := c.src1, c.src2
	seq := c.waiters[ps]
	c.waiters[ps] = 0
	for seq != 0 {
		// schedule(seq, cycle), inlined (see the matching inline in
		// dispatch).
		s := seq & mask
		nxt := link[s]
		t1, k1 := readyTime(done, mask, head, src1[s])
		t2, k2 := readyTime(done, mask, head, src2[s])
		if !k1 || !k2 {
			p := src2[s]
			if !k1 {
				p = src1[s]
			}
			p &= mask
			link[s] = c.waiters[p]
			c.waiters[p] = seq
		} else if t := max(t1, t2); t == cycle+1 {
			c.nextb[s>>6] |= 1 << (s & 63)
			c.nextN++
		} else {
			c.readyAt[s] = t
			c.wheelInsert(seq, t)
		}
		seq = nxt
	}
}

// Run simulates until n further instructions commit (beyond whatever has
// already committed) and returns the cumulative statistics. Machine state —
// caches, predictor, in-flight window — persists across calls, which is how
// the harness implements warmup: Run(warmup), ResetStats, Run(measure).
//
// The loop body exists twice: the plain path, and a sampled path (1 cycle
// in 1024, selected deterministically by the cycle counter) that wraps
// each stage in wall-clock timing for the per-stage ns attribution in
// /metrics. The two bodies perform the identical sequence of stage calls —
// keep them in sync — so sampling cannot perturb simulation results; the
// golden-fixture tests cover both paths, since cycle counts in the
// thousands always cross sampled cycles.
func (c *Core) Run(n uint64) Stats {
	target := c.Stats.Instructions + n
	start := c.now
	// Re-derive the cached tick schedules on entry: an adapter may have
	// been installed or an interval reprogrammed since the last call.
	// Forcing a Tick on the first cycle is harmless — the reference loop
	// ticks every cycle anyway.
	c.dcNext = 0
	c.icNext = 0
	for c.Stats.Instructions < target {
		c.now++
		if c.now&stageSampleMask == 0 {
			c.stepTimed()
			continue
		}
		if c.now >= c.dcNext {
			c.DCache.Tick(c.now)
			c.dcNext = c.DCache.NextTickEvent()
		}
		if c.now >= c.icNext {
			c.ICache.Tick(c.now)
			c.icNext = c.ICache.NextTickEvent()
		}
		c.fuBlocked = false
		// The pop/issue/dispatch calls are guarded by their cheapest
		// emptiness conditions so quiet stages cost a compare, not a
		// call. A skipped stage contributes no activity, exactly as its
		// empty-handed call would.
		if c.wheelCount|c.nextN != 0 {
			c.popWheel()
		}
		active := c.commit(c.now)
		if c.rdyN != 0 && c.issue(c.now) {
			active = true
		}
		if c.tail != c.nextSeq && c.dispatch(c.now) {
			active = true
		}
		if c.fetch(c.now) {
			active = true
		}
		if !active && !c.fuBlocked && !c.DisableFastForward {
			c.fastForward()
		}
	}
	c.Stats.Cycles += c.now - start
	return c.Stats
}

// stepTimed is one sampled cycle of Run's loop: the same stage sequence,
// with each stage's wall-clock duration accumulated into stageNS.
func (c *Core) stepTimed() {
	c.stageSampled++
	t := time.Now()
	if c.now >= c.dcNext {
		c.DCache.Tick(c.now)
		c.dcNext = c.DCache.NextTickEvent()
	}
	if c.now >= c.icNext {
		c.ICache.Tick(c.now)
		c.icNext = c.ICache.NextTickEvent()
	}
	c.stageNS[stageTick] += uint64(time.Since(t))
	c.fuBlocked = false
	t = time.Now()
	if c.wheelCount|c.nextN != 0 {
		c.popWheel()
	}
	active := c.commit(c.now)
	c.stageNS[stageCommit] += uint64(time.Since(t))
	t = time.Now()
	if c.rdyN != 0 && c.issue(c.now) {
		active = true
	}
	c.stageNS[stageIssue] += uint64(time.Since(t))
	t = time.Now()
	if c.tail != c.nextSeq && c.dispatch(c.now) {
		active = true
	}
	c.stageNS[stageDispatch] += uint64(time.Since(t))
	t = time.Now()
	if c.fetch(c.now) {
		active = true
	}
	c.stageNS[stageFetch] += uint64(time.Since(t))
	if !active && !c.fuBlocked && !c.DisableFastForward {
		c.fastForward()
	}
}

// fastForward runs at the end of a provably idle cycle: nothing committed,
// issued, dispatched or fetched, and no ready instruction was denied a
// functional unit. Until the earliest scheduled event — an in-flight
// instruction completing, the fetch stall ending, an MSHR freeing, a decay
// rollover or an adapter consultation — every following cycle repeats the
// idle cycle exactly, so the core jumps to the cycle before that event and
// books the skipped fetch-stall cycles in bulk.
//
// The invariant that makes the jump bit-identical: instruction readiness,
// commit eligibility and MSHR occupancy change only at recorded doneAt
// times; fetch blockage changes only at fetchStall, at a branch issuing
// (an active cycle), or at dispatch draining the backlog (idle ⇒ none);
// and the decay machines do nothing between their scheduled rollovers and
// adapter consultations, which both caches expose via NextTickEvent.
func (c *Core) fastForward() {
	next := min(c.dcNext, c.icNext)
	if c.fetchStall > c.now && c.fetchStall < next {
		next = c.fetchStall
	}
	done := c.done
	mask := c.ringMask
	for seq := c.head; seq < c.tail; seq++ {
		d := done[seq&mask]
		if d == notIssued {
			continue
		}
		if t := d >> 1; t > c.now && t < next {
			next = t
		}
	}
	for _, done := range c.mshrBusy[:c.mshrLen] {
		if done > c.now && done < next {
			next = done
		}
	}
	if next == never || next <= c.now+1 {
		return // nothing scheduled, or the event is next cycle anyway
	}
	skipped := next - c.now - 1
	// Each skipped cycle would have run fetch and found it stalled under
	// the same condition as this cycle (the stall cause cannot clear
	// inside the region: next <= fetchStall whenever fetchStall is the
	// binding cause, and a pending branch resolves only on active
	// cycles). A full fetch backlog does not count as a stall, matching
	// the reference loop.
	if c.pendingBranch != 0 || c.now < c.fetchStall {
		c.Stats.FetchStallCy += skipped
	}
	c.now = next - 1
}

// Now returns the current cycle.
func (c *Core) Now() uint64 { return c.now }

// ResetStats zeroes the core's counters (not its architectural state) so a
// measurement phase can follow a warmup phase.
func (c *Core) ResetStats() { c.Stats, c.obsPrev, c.BP = Stats{}, Stats{}, bpred.Stats{} }

// commit retires up to CommitWidth oldest completed entries in order and
// reports whether anything retired.
func (c *Core) commit(cycle uint64) bool {
	done := c.done
	mask := c.ringMask
	head := c.head
	lim := uint64(c.Cfg.CommitWidth)
	if left := c.tail - head; left < lim {
		lim = left
	}
	n := uint64(0)
	lsq := 0
	for n < lim {
		// An un-issued entry's done word shifts to notIssued>>1, which
		// exceeds any cycle, so one test covers "not issued" and "not
		// done yet".
		d := done[head&mask]
		if d>>1 > cycle {
			break
		}
		lsq += int(d & 1)
		head++
		n++
	}
	c.lsqUsed -= lsq
	if n == 0 {
		return false
	}
	c.head = head
	c.Stats.Instructions += n
	return true
}

// issue selects ready un-issued entries oldest-first, bounded by issue
// width, FU availability and the scan limit, and reports whether anything
// issued. The walk visits the ready set's bits in ring order from head's
// slot — exactly the entries the reference scan finds ready, in the same
// age order — and the ScanLimit cutoff is applied through each entry's
// rank among all un-issued entries, which is the position the reference
// scan would examine it at. No entry joins the ready set during the walk:
// an entry woken here is ready at cycle+1 at the earliest. Ready entries
// denied a unit set fuBlocked, which vetoes fast-forwarding (the
// structural hazard clears on its own next cycle).
func (c *Core) issue(cycle uint64) bool {
	fuCnt := [numFU]int{c.Cfg.IntALUs, c.Cfg.IntMulDivs, c.Cfg.FPALUs, c.Cfg.FPMulDivs, c.Cfg.MemPorts}
	issued := 0
	mask := c.ringMask
	ops := c.ops
	addr := c.addr
	rdyb, unb := c.rdyb, c.unb
	width, scanLim := c.Cfg.IssueWidth, c.Cfg.ScanLimit
	mshrCap := c.Cfg.MSHRs
	hitLat := uint64(c.DCache.Cfg.HitLatency)
	// Ranks only need checking when the un-issued population can exceed
	// the scan limit at all. Entries issued during this walk are removed
	// from the bitmap, deflating later ranks by exactly the issued count
	// (they are all older), so it is added back: the reference scan's
	// positions are fixed at the start of its cycle.
	checkRank := c.unissued > scanLim
	head := c.head
	hs := head & mask
	// The walk starts at head's slot and wraps at most once around the
	// ring; its last word, back at head's, holds only the slots below
	// head's. left counts the ready entries not yet visited.
	hw, lowMask := hs>>6, uint64(1)<<(hs&63)-1
	wi := hw
	w := rdyb[wi] &^ lowMask
	left := c.rdyN
walk:
	for {
		for ; w != 0; w &= w - 1 {
			left--
			s := wi<<6 | uint64(bits.TrailingZeros64(w))
			seq := head + (s-hs)&mask
			// rank(seq)+issued counts un-issued entries older than seq as
			// of the cycle start, which is at most seq-head: the subtract
			// rules out a cutoff without touching the bitmap for the
			// common near-head entries.
			if checkRank && seq-head >= uint64(scanLim) && c.rank(seq)+issued >= scanLim {
				// Beyond the scan horizon; so is everything younger.
				break walk
			}
			op := ops[s] & 15
			cls := fuClassTab[op]
			if fuCnt[cls] == 0 {
				// Denied a unit: stays ready, retried next cycle.
				c.fuBlocked = true
				continue
			}
			lat := latTab[op]
			if cls == fuMem {
				store := op == workload.OpStore
				if !store && mshrCap > 0 && !c.mshrAvailable(cycle) {
					// All miss slots busy; their release times are
					// events, so no fuBlocked veto.
					continue
				}
				// Loads and stores take one access, told apart by the
				// write flag. Store data is buffered, so a store keeps
				// latTab's single cycle and takes no miss slot (the
				// cache's hit latency is at least 1); its access happens
				// now for cache state and energy.
				acc := uint64(c.DCache.Access(addr[s], store, cycle))
				st := uint64(0)
				if store {
					st = 1
				}
				c.Stats.Stores += st
				c.Stats.Loads += st ^ 1
				if !store {
					lat = acc
				}
				if lat > hitLat && mshrCap > 0 {
					c.mshrBusy[c.mshrLen] = cycle + lat
					c.mshrLen++
				}
			}
			fuCnt[cls]--
			c.done[s] = (cycle+lat)<<1 | uint64(memTab[op])
			bit := uint64(1) << (s & 63)
			rdyb[wi] &^= bit
			unb[wi] &^= bit
			c.unissued-- // rank reads it
			issued++
			if c.waiters[s] != 0 {
				c.wakeWaiters(s, cycle)
			}
			if issued == width {
				break walk
			}
		}
		if left == 0 {
			break
		}
		if wi++; wi == uint64(len(rdyb)) {
			wi = 0
		}
		w = rdyb[wi]
		if wi == hw {
			w &= lowMask
		}
	}
	c.rdyN -= issued
	return issued > 0
}

// mshrAvailable reports whether a miss slot is free, reaping completed
// slots only when the list is at capacity. Deferring the reap cannot change
// the verdict — a list below capacity has a free slot regardless — and the
// stale completion times it leaves behind are skipped by both the reap and
// the fast-forward scan (done <= now).
func (c *Core) mshrAvailable(cycle uint64) bool {
	if c.mshrLen < c.Cfg.MSHRs {
		return true
	}
	busy := c.mshrBusy[:c.mshrLen]
	n := 0
	for _, done := range busy {
		if done > cycle {
			busy[n] = done
			n++
		}
	}
	c.mshrLen = n
	return n < c.Cfg.MSHRs
}

// dispatch moves fetched instructions — already decoded into their ring
// slots by fetch — into the RUU/LSQ window, registers each with the
// event-driven scheduler, and reports whether anything moved. The pending
// backlog is the seq interval [tail, nextSeq).
func (c *Core) dispatch(cycle uint64) bool {
	head := c.head
	lsq, lsqSize := c.lsqUsed, c.Cfg.LSQSize
	done := c.done
	mask := c.ringMask
	src1, src2, ops := c.src1, c.src2, c.ops
	start := c.tail
	end := min(c.nextSeq, head+uint64(c.Cfg.RUUSize), start+uint64(c.Cfg.DecodeWidth))
	seq := start
	for ; seq < end; seq++ {
		s := seq & mask
		m := int(memTab[ops[s]&15])
		if lsq+m > lsqSize {
			break
		}
		lsq += m
		done[s] = notIssued
		bit := uint64(1) << (s & 63)
		c.unb[s>>6] |= bit
		// schedule(seq, cycle), inlined to reuse the loop's locals —
		// the per-instruction call was a measurable share of dispatch.
		// readyAt/link are always written before their next read (at
		// wheel and waiter filing), and waiters is invariantly zero on
		// a recycled slot — the previous occupant's chain was drained
		// when it issued. An unknown producer parks the entry on its
		// chain, src1's first.
		t1, k1 := readyTime(done, mask, head, src1[s])
		t2, k2 := readyTime(done, mask, head, src2[s])
		if !k1 || !k2 {
			p := src2[s]
			if !k1 {
				p = src1[s]
			}
			p &= mask
			c.link[s] = c.waiters[p]
			c.waiters[p] = seq
		} else if t := max(t1, t2); t <= cycle+1 {
			// Ready by next cycle, the first cycle issue can see it.
			c.rdyb[s>>6] |= bit
			c.rdyN++
		} else {
			c.readyAt[s] = t
			c.wheelInsert(seq, t)
		}
	}
	c.unissued += int(seq - start)
	c.lsqUsed = lsq
	c.tail = seq
	return seq != start
}

// fetch brings up to FetchWidth instructions from the front into the
// pending backlog, decoding each straight into its ring slot (producer
// distances converted to absolute seqs here, since the slot and seq are
// fixed at fetch time), and reports whether any instruction was fetched.
// The stream's predictor outcomes and I-cache line grouping come from the
// record's flags; the I-cache access itself (its latency depends on this
// core's hierarchy) and all stall bookkeeping are this core's own. Stall
// bookkeeping alone does not count as activity — the fast-forward replays
// it in bulk.
func (c *Core) fetch(cycle uint64) bool {
	if c.pendingBranch != 0 {
		// Waiting on a mispredicted branch. Once it has issued, its
		// resolution time is known and fetch can be scheduled.
		if c.pendingBranch < c.tail {
			if d := c.done[c.pendingBranch&c.ringMask]; d != notIssued {
				c.fetchStall = d>>1 + uint64(c.Cfg.MispredictPen)
				c.pendingBranch = 0
			}
		}
		if c.pendingBranch != 0 {
			c.Stats.FetchStallCy++
			return false
		}
	}
	if cycle < c.fetchStall {
		c.Stats.FetchStallCy++
		return false
	}
	if c.nextSeq-c.tail >= uint64(2*c.Cfg.FetchWidth) {
		return false
	}
	recs, base := c.front.recs, c.front.base
	mask := c.ringMask
	for w := 0; w < c.Cfg.FetchWidth; w++ {
		i := c.frontPos - base
		if uint(i) >= uint(len(recs)) {
			recs, base = c.slide()
			i = c.frontPos - base
		}
		rec := &recs[i]
		c.frontPos++
		seq := c.nextSeq
		c.nextSeq = seq + 1
		s := seq & mask
		// A distance of 0 (no producer) or one reaching back past the
		// stream's first instruction means producer 0. Both read
		// d-1 >= seq-1 unsigned: one compare, a conditional move.
		d1, d2 := uint64(uint32(rec.Src1)), uint64(uint32(rec.Src2))
		p1, p2 := seq-d1, seq-d2
		if d1-1 >= seq-1 {
			p1 = 0
		}
		if d2-1 >= seq-1 {
			p2 = 0
		}
		c.src1[s], c.src2[s] = p1, p2
		c.addr[s] = rec.Addr
		c.ops[s] = rec.Op

		stop := false
		flags := rec.Flags

		// I-cache: one access per new line in the fetch stream.
		if flags&FrontICAccess != 0 {
			if lat := c.ICache.Access(rec.PC, false, cycle); lat > c.ICache.HitLat() {
				c.Stats.ICacheStalls++
				c.fetchStall = cycle + uint64(lat)
				stop = true
			}
		}

		// Only CTIs carry predictor flags, so the counts add without a
		// test; a CTI that redirects fetch ends the fetch group.
		c.Stats.Branches += uint64(ctiTab[rec.Op&15])
		c.BP.Branches += uint64(flags / FrontBPUpdate & 1)
		c.BP.DirMispredict += uint64(flags / FrontBPDirMisp & 1)
		c.BP.BTBMiss += uint64(flags / FrontBPBTBMiss & 1)
		if flags&(FrontMisp|FrontBubble|FrontTaken) != 0 {
			if flags&FrontMisp != 0 {
				c.Stats.Mispredicts++
				c.pendingBranch = seq
			} else if flags&FrontBubble != 0 {
				// Right direction, target from decode: short
				// front-end bubble.
				c.fetchStall = cycle + 2
			}
			// Otherwise a correct taken prediction: redirected fetch
			// continues next cycle.
			return true
		}
		if stop {
			return true
		}
	}
	return true
}

// slide makes the core's read position resident and returns the window.
// An owned window drops what fetch has consumed and generates the next
// ownWindow records. A window attached from outside is its owner's to
// slide: running off it means the run asked for more than the stream
// holds or the owner kept too little resident, and the panic names the
// window so the batch executor can report it as the lane's failure.
func (c *Core) slide() ([]FrontRec, int) {
	f := c.front
	if !c.own {
		panic(fmt.Sprintf("cpu: front position %d outside window [%d, %d)", c.frontPos, f.base, f.base+len(f.recs)))
	}
	f.Advance(c.frontPos, c.frontPos+ownWindow)
	return f.recs, f.base
}

// Reach returns the stream position one past the last record Run(n) can
// fetch: n further commits, plus the most the core fetches ahead of commit
// (a full RUU, the fetch backlog and one commit cycle's overshoot). Whoever
// slides an attached window keeps it resident through Reach before each
// Run.
func (c *Core) Reach(n uint64) int {
	return c.frontPos + int(n) + c.Cfg.RUUSize + 3*c.Cfg.FetchWidth + c.Cfg.CommitWidth
}
