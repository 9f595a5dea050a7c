// The front end's stream: the per-instruction work that does not depend
// on a core's timing or leakage state — instruction generation, branch
// prediction, I-cache line grouping — computed once into a Front and read
// by fetch. A core built over a source owns a Front; a lockstep group of
// variants of one (benchmark, machine config) shares one, so the work is
// done once for N cores.
//
// The split rests on an invariant of this trace-driven model: the fetch
// STREAM is identical for every variant of one benchmark. Fetch order is
// stream order regardless of stalls (stalls change WHEN an instruction is
// fetched, never WHICH instruction comes next), so everything derived
// purely from the stream prefix — predictor lookups/updates and their
// outcomes, the fetch-line dedup that decides which instructions access
// the I-cache, dependence distances — is variant-independent and can be
// precomputed. Everything cycle-dependent (cache hit/miss LATENCIES, the
// wheel, the done array, leakctl decay state) stays per-core: a core still
// performs its own I-cache/D-cache accesses against its own hierarchy, it
// just does not decode or predict.
//
// A core reads only a little past its commit point, so a Front keeps a
// window of the stream resident and slides it forward, whatever the run's
// length.
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
	// line — the instructions for which fetch performs an I-cache access.
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
	// FrontTaken marks a taken CTI: a correctly predicted one redirects
	// fetch to the next cycle.
	FrontTaken
)

// FrontRec is one precomputed instruction: the decoded fields fetch reads
// plus the variant-independent front-end outcome flags, 32 bytes in all.
// A CTI's direction is a flag, and its target is not kept: the predictor
// consumes it while the record is generated.
type FrontRec struct {
	PC   uint64
	Addr uint64 // memory ops: byte address
	// Src1 and Src2 are dependence distances in instructions (0 = none).
	Src1, Src2 int32
	Op         workload.OpClass
	Flags      uint8
}

// Front is a sliding window onto a precomputed stream: stream positions
// [base, base+len(recs)) are resident. Fill starts a stream and makes its
// first n positions resident; Advance drops the records below a position
// and generates further ones with the same source, predictor and
// fetch-line cursor, so every record equals the one a single Fill of the
// whole length would hold at that position. A Front is not safe for
// concurrent use: the batch executor advances it between lockstep rounds,
// and its lanes read it one at a time in between.
type Front struct {
	recs []FrontRec
	base int

	src      InstrSource
	pred     *bpred.Predictor
	lastLine uint64
}

// Fill starts the stream of src through pred and makes positions [0, n)
// resident, reusing the record storage across streams. pred must be
// freshly built or Reset: its table state after any stream prefix is the
// state a predictor trained on exactly that prefix has, which is what
// makes one front serve every variant. The front keeps src and pred for
// Advance.
func (f *Front) Fill(src InstrSource, pred *bpred.Predictor, n uint64) {
	f.recs, f.base = f.recs[:0], 0
	f.src, f.pred, f.lastLine = src, pred, ^uint64(0)
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

// Reserve makes room for n resident records without generating any, so a
// window that will grow to n allocates once.
func (f *Front) Reserve(n int) {
	if cap(f.recs) < n {
		recs := make([]FrontRec, len(f.recs), n)
		copy(recs, f.recs)
		f.recs = recs
	}
}

// Resident returns how many records the window holds storage for: its
// memory footprint, in records.
func (f *Front) Resident() int { return cap(f.recs) }

// extend generates the stream from the window's end through position hi.
// Storage grows with an eighth to spare, so a window that creeps up by a
// few records per slide reallocates rarely without holding much more than
// it needs.
func (f *Front) extend(hi int) {
	old, n := len(f.recs), hi-f.base
	if n <= old {
		return
	}
	if cap(f.recs) < n {
		f.Reserve(n + n/8)
	}
	f.recs = f.recs[:n]
	src, pred, lastLine := f.src, f.pred, f.lastLine
	var ins workload.Instr
	for i := old; i < n; i++ {
		src.Next(&ins)
		flags := uint8(0)
		if line := ins.PC >> 6; line != lastLine {
			lastLine = line
			flags = FrontICAccess
		}
		if ins.Op.IsCTI() {
			if ins.Taken {
				flags |= FrontTaken
			}
			before := pred.Stats
			misp, bubble := predictCTI(pred, &ins)
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
		f.recs[i] = FrontRec{PC: ins.PC, Addr: ins.Addr, Src1: ins.Src1, Src2: ins.Src2, Op: ins.Op, Flags: flags}
	}
	f.lastLine = lastLine
}

// predictCTI runs the predictor for a control transfer. mispredict means a
// wrong-path flush; bubble means a decode-supplied target (short stall).
func predictCTI(p *bpred.Predictor, ins *workload.Instr) (mispredict, bubble bool) {
	switch ins.Op {
	case workload.OpBranch:
		pr := p.Lookup(ins.PC)
		return p.Update(ins.PC, pr, ins.Taken, ins.Target)
	case workload.OpCall:
		// Direct call: target known at decode; train the BTB and RAS.
		p.PushRAS(ins.PC + 4)
		pr := p.Lookup(ins.PC)
		p.Update(ins.PC, pr, true, ins.Target)
		return false, !pr.BTBHit
	case workload.OpReturn:
		// Return: mispredicted iff the RAS is wrong.
		return p.PopRAS() != ins.Target, false
	default: // OpJump: direct, decoded target
		return false, true
	}
}

// AttachFront points the core at a window it does not own, from stream
// position 0. The attacher slides the window and must keep every record
// the core's next Run can fetch resident (Reach); fetch panics outside it.
// Recycle drops the attachment, so a reused core must re-attach per run.
func (c *Core) AttachFront(f *Front) {
	c.front, c.frontPos, c.own = f, 0, false
}

// FrontPos returns how many records the core has fetched — its position in
// the stream.
func (c *Core) FrontPos() int { return c.frontPos }
