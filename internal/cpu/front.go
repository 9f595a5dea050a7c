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

// Front is a fully materialized precomputed stream. It is filled once per
// batch group and then read concurrently — Fill must complete before any
// lane consumes it, and the records are immutable afterwards.
type Front struct {
	Recs []FrontRec
}

// Fill precomputes n instructions from gen through pred, reusing the
// record storage across groups. pred must be freshly built or Reset: it
// plays the role every lane's private predictor plays on the scalar path,
// and its table state after Fill is exactly the scalar predictor's state
// after the same stream (the parity tests pin this).
func (f *Front) Fill(gen *workload.Generator, pred *bpred.Predictor, n uint64) {
	if uint64(cap(f.Recs)) >= n {
		f.Recs = f.Recs[:n]
	} else {
		f.Recs = make([]FrontRec, n)
	}
	lastLine := ^uint64(0)
	for i := range f.Recs {
		r := &f.Recs[i]
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
}

// Len returns the number of precomputed instructions.
func (f *Front) Len() int { return len(f.Recs) }

// AttachFront switches the core into replay mode: fetch consumes the
// precomputed records (from the beginning) instead of generating and
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
	recs := c.front.Recs
	mask := c.ringMask
	for w := 0; w < c.Cfg.FetchWidth; w++ {
		if c.frontPos >= len(recs) {
			// The front was sized to warmup+measure+slack, which bounds
			// every lane's fetch-ahead; running past it means the run was
			// asked for more instructions than the front holds. The batch
			// executor recovers the panic into a per-lane failure and
			// re-runs the cell on the scalar path.
			panic(fmt.Sprintf("cpu: front exhausted at %d records", len(recs)))
		}
		rec := &recs[c.frontPos]
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
