// Lockstep batch front end: the per-instruction work that does not depend
// on a variant's timing or leakage state — instruction generation, branch
// prediction, I-cache line grouping — computed once per (benchmark,
// machine config) group and replayed into N variant cores.
//
// The split rests on an invariant of this trace-driven model: the fetch
// STREAM is identical for every variant of one benchmark. Fetch order is
// stream order regardless of stalls (stalls change WHEN an instruction is
// fetched, never WHICH instruction comes next), so everything derived
// purely from the stream prefix — predictor lookups/updates and their
// outcomes, the fetch-line dedup that decides which instructions access
// the I-cache, dependence distances — is variant-independent and can be
// precomputed. Everything cycle-dependent (cache hit/miss LATENCIES, the
// wheel, the done array, leakctl decay state) stays per-variant: a replay
// core still performs its own I-cache/D-cache accesses against its own
// hierarchy, it just no longer decodes or predicts.
//
// Lanes stepping in lockstep chunks only read about one chunk of the
// stream at a time, so the front keeps a window of it resident and slides
// it forward between rounds, whatever the run's length.
package cpu

import (
	"fmt"

	"hotleakage/internal/bpred"
	"hotleakage/internal/workload"
)

// FrontRec flag bits: the per-instruction front-end outcomes a replaying
// lane consumes instead of recomputing.
const (
	// FrontICAccess marks the first instruction of a new 64-byte fetch
	// line — the instructions for which the scalar fetch path performs an
	// I-cache access.
	FrontICAccess uint8 = 1 << iota
	// FrontMisp marks a mispredicted CTI (wrong-path flush: fetch stalls
	// until the branch resolves).
	FrontMisp
	// FrontBubble marks a correctly-directed CTI whose target had to come
	// from decode (fixed 2-cycle front-end bubble).
	FrontBubble
	// FrontBPUpdate marks a CTI that ran Predictor.Update (OpBranch,
	// OpCall): bpred.Stats.Branches advances by one.
	FrontBPUpdate
	// FrontBPDirMisp / FrontBPBTBMiss carry the Update call's Stats deltas.
	FrontBPDirMisp
	FrontBPBTBMiss
)

// FrontRec is one precomputed instruction: the decoded fields plus the
// variant-independent front-end outcome flags.
type FrontRec struct {
	Ins   workload.Instr
	Flags uint8
}

// Front is a sliding window onto a precomputed stream: stream positions
// [base, base+len(recs)) are resident. Fill starts a stream and makes its
// first n positions resident; Advance drops the records below a position
// and generates further ones with the same generator, predictor and
// fetch-line cursor, so every record equals the one a single Fill of the
// whole length would hold at that position. A Front is not safe for
// concurrent use: the batch executor advances it between lockstep rounds,
// and its lanes read it one at a time in between.
type Front struct {
	recs []FrontRec
	base int

	gen      *workload.Generator
	pred     *bpred.Predictor
	lastLine uint64
}

// Fill starts the stream of gen through pred and makes positions [0, n)
// resident, reusing the record storage across groups. pred must be
// freshly built or Reset: it plays the role every lane's private predictor
// plays on the scalar path, and its table state after any stream prefix is
// exactly the scalar predictor's state after the same prefix (the parity
// tests pin this). The front keeps gen and pred for Advance.
func (f *Front) Fill(gen *workload.Generator, pred *bpred.Predictor, n uint64) {
	f.recs, f.base = f.recs[:0], 0
	f.gen, f.pred, f.lastLine = gen, pred, ^uint64(0)
	f.extend(int(n))
}

// Advance slides the window to start at stream position lo and generates
// the stream through position hi; a hi at or below the window's end
// generates nothing. lo must lie inside the window or at its end: records
// below the window are gone, and a lane still reading them panics.
func (f *Front) Advance(lo, hi int) {
	end := f.base + len(f.recs)
	if lo < f.base || lo > end {
		panic(fmt.Sprintf("cpu: front window [%d, %d) cannot advance to %d", f.base, end, lo))
	}
	if lo > f.base {
		f.recs = f.recs[:copy(f.recs, f.recs[lo-f.base:])]
		f.base = lo
	}
	f.extend(hi)
}

// Resident returns how many records the window holds storage for: its
// memory footprint, in records.
func (f *Front) Resident() int { return cap(f.recs) }

// extend generates the stream from the window's end through position hi.
func (f *Front) extend(hi int) {
	old, n := len(f.recs), hi-f.base
	if n <= old {
		return
	}
	if cap(f.recs) < n {
		recs := make([]FrontRec, old, n)
		copy(recs, f.recs)
		f.recs = recs
	}
	f.recs = f.recs[:n]
	gen, pred, lastLine := f.gen, f.pred, f.lastLine
	for i := old; i < n; i++ {
		r := &f.recs[i]
		ins := &r.Ins
		gen.Next(ins)
		flags := uint8(0)
		if line := ins.PC >> 6; line != lastLine {
			lastLine = line
			flags = FrontICAccess
		}
		if ins.Op.IsCTI() {
			before := pred.Stats
			misp, bubble := predictCTI(pred, ins)
			if misp {
				flags |= FrontMisp
			}
			if bubble {
				flags |= FrontBubble
			}
			if pred.Stats.Branches != before.Branches {
				flags |= FrontBPUpdate
			}
			if pred.Stats.DirMispredict != before.DirMispredict {
				flags |= FrontBPDirMisp
			}
			if pred.Stats.BTBMiss != before.BTBMiss {
				flags |= FrontBPBTBMiss
			}
		}
		r.Flags = flags
	}
	f.lastLine = lastLine
}

// AttachFront switches the core into replay mode: fetch consumes the
// precomputed records (from stream position 0) instead of generating and
// predicting live. The core's own Gen and Pred are not touched in this
// mode; per-run predictor statistics accumulate in Core.BP from the
// recorded deltas. Recycle detaches any front (the rebuilt core starts in
// live mode), so a reused lane must re-attach per run.
func (c *Core) AttachFront(f *Front) {
	c.front = f
	c.frontPos = 0
}

// FrontPos returns how many precomputed instructions the core has
// consumed — the lane's fetch position in the shared stream.
func (c *Core) FrontPos() int { return c.frontPos }

// fetchReplay is fetch for a front-attached core: structurally identical
// to Core.fetch, but the instruction comes from the precomputed record and
// the predictor outcome from its flags. The I-cache access (latency
// depends on this lane's L2 state) and all stall bookkeeping remain
// per-lane, so the timing behaviour is bit-identical to the live path.
func (c *Core) fetchReplay(cycle uint64) bool {
	if c.pendingBranch != 0 {
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
			// The batch executor keeps every live lane's next chunk plus a
			// slack far above its fetch-ahead inside the window, so leaving
			// it means the run asked for more than the stream holds or a
			// lane outran the slack. The executor recovers the panic into a
			// per-lane failure and re-runs the cell on the scalar path.
			panic(fmt.Sprintf("cpu: front position %d outside window [%d, %d)", c.frontPos, base, base+len(recs)))
		}
		rec := &recs[i]
		c.frontPos++
		seq := c.nextSeq
		c.nextSeq = seq + 1
		s := seq & mask
		if d := uint64(uint32(rec.Ins.Src1)); d != 0 && seq > d {
			c.src1[s] = seq - d
		} else {
			c.src1[s] = 0
		}
		if d := uint64(uint32(rec.Ins.Src2)); d != 0 && seq > d {
			c.src2[s] = seq - d
		} else {
			c.src2[s] = 0
		}
		c.addr[s] = rec.Ins.Addr
		c.ops[s] = rec.Ins.Op

		stop := false
		flags := rec.Flags

		if flags&FrontICAccess != 0 {
			if lat := c.ICache.Access(rec.Ins.PC, false, cycle); lat > c.ICache.HitLat() {
				c.Stats.ICacheStalls++
				c.fetchStall = cycle + uint64(lat)
				stop = true
			}
		}

		if rec.Ins.Op.IsCTI() {
			c.Stats.Branches++
			if flags&FrontBPUpdate != 0 {
				c.BP.Branches++
			}
			if flags&FrontBPDirMisp != 0 {
				c.BP.DirMispredict++
			}
			if flags&FrontBPBTBMiss != 0 {
				c.BP.BTBMiss++
			}
			if flags&FrontMisp != 0 {
				c.Stats.Mispredicts++
				c.pendingBranch = seq
				return true
			}
			if flags&FrontBubble != 0 {
				c.fetchStall = cycle + 2
				return true
			}
			if rec.Ins.Taken {
				return true
			}
		}
		if stop {
			return true
		}
	}
	return true
}
