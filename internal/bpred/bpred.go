// Package bpred implements the simulated machine's branch prediction:
// the paper's hybrid predictor (4K-entry bimodal, 4K-entry GAg with a
// 12-bit global history, and a 4K-entry bimodal-style chooser), a 1K-entry
// 2-way branch target buffer, and a return-address stack. This mirrors the
// Table 2 configuration (the 21264-style hybrid plus an explicit BTB).
package bpred

// Config sizes the predictor tables.
type Config struct {
	BimodEntries   int // direction: per-PC 2-bit counters
	GShareEntries  int // direction: global-history-indexed 2-bit counters
	HistoryBits    int // global history length (GAg)
	ChooserEntries int // meta predictor choosing bimod vs GAg
	BTBEntries     int
	BTBAssoc       int
	RASEntries     int
}

// DefaultConfig is the paper's Table 2 predictor.
func DefaultConfig() Config {
	return Config{
		BimodEntries:   4096,
		GShareEntries:  4096,
		HistoryBits:    12,
		ChooserEntries: 4096,
		BTBEntries:     1024,
		BTBAssoc:       2,
		RASEntries:     8,
	}
}

// Stats counts prediction outcomes.
type Stats struct {
	Branches      uint64
	DirMispredict uint64
	BTBMiss       uint64
}

// MispredictRate returns direction mispredictions per branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.DirMispredict) / float64(s.Branches)
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
	lru    uint64
}

// Predictor is the hybrid direction predictor plus BTB and RAS.
type Predictor struct {
	Cfg   Config
	Stats Stats

	bimod    []uint8
	gag      []uint8
	chooser  []uint8
	history  uint64
	histMask uint64

	btb      []btbEntry
	btbSets  int
	btbStamp uint64

	ras    []uint64
	rasTop int
}

// New builds a predictor; table sizes must be powers of two.
func New(cfg Config) *Predictor {
	p := &Predictor{
		Cfg:     cfg,
		bimod:   make([]uint8, cfg.BimodEntries),
		gag:     make([]uint8, cfg.GShareEntries),
		chooser: make([]uint8, cfg.ChooserEntries),
		btb:     make([]btbEntry, cfg.BTBEntries),
		ras:     make([]uint64, cfg.RASEntries),
	}
	p.histMask = (1 << cfg.HistoryBits) - 1
	p.btbSets = cfg.BTBEntries / cfg.BTBAssoc
	// Weakly-taken initialization matches sim-outorder.
	for i := range p.bimod {
		p.bimod[i] = 2
	}
	for i := range p.gag {
		p.gag[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 2
	}
	return p
}

// ResetStats zeroes the outcome counters, keeping trained state (warmup
// support).
func (p *Predictor) ResetStats() { p.Stats = Stats{} }

// Reset returns the predictor to the state New leaves it in — weakly-taken
// counters, empty BTB/RAS, clean history — reusing the table allocations
// (a pooled batch front reuses its predictor from group to group).
func (p *Predictor) Reset() {
	p.Stats = Stats{}
	for i := range p.bimod {
		p.bimod[i] = 2
	}
	for i := range p.gag {
		p.gag[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 2
	}
	p.history = 0
	clear(p.btb)
	p.btbStamp = 0
	clear(p.ras)
	p.rasTop = 0
}

// Prediction is the outcome of a lookup, passed back to Update.
type Prediction struct {
	Taken     bool
	Target    uint64
	BTBHit    bool
	usedGAg   bool
	bimodSaid bool
	gagSaid   bool
	bIdx      int
	gIdx      int
	cIdx      int
}

// Lookup predicts the direction and target of the branch at pc.
func (p *Predictor) Lookup(pc uint64) Prediction {
	var pr Prediction
	pr.bIdx = int((pc >> 2) & uint64(len(p.bimod)-1))
	pr.gIdx = int(p.history & uint64(len(p.gag)-1))
	pr.cIdx = int((pc >> 2) & uint64(len(p.chooser)-1))

	pr.bimodSaid = p.bimod[pr.bIdx] >= 2
	pr.gagSaid = p.gag[pr.gIdx] >= 2
	pr.usedGAg = p.chooser[pr.cIdx] >= 2
	if pr.usedGAg {
		pr.Taken = pr.gagSaid
	} else {
		pr.Taken = pr.bimodSaid
	}

	set := int((pc >> 2) % uint64(p.btbSets))
	tag := (pc >> 2) / uint64(p.btbSets)
	base := set * p.Cfg.BTBAssoc
	for w := 0; w < p.Cfg.BTBAssoc; w++ {
		e := &p.btb[base+w]
		if e.valid && e.tag == tag {
			pr.BTBHit = true
			pr.Target = e.target
			break
		}
	}
	return pr
}

// Update trains the predictor with the actual outcome and reports the
// front-end consequence: mispredict means the fetch stream went down the
// wrong path (direction error — flush on resolve); btbBubble means the
// direction was right but the target had to come from decode (a short
// fixed bubble for direct branches, not a flush).
func (p *Predictor) Update(pc uint64, pr Prediction, taken bool, target uint64) (mispredict, btbBubble bool) {
	p.Stats.Branches++

	// Direction counters.
	bump(&p.bimod[pr.bIdx], taken)
	bump(&p.gag[pr.gIdx], taken)
	// Chooser trains toward whichever component was right (when they
	// disagree).
	if pr.bimodSaid != pr.gagSaid {
		bump(&p.chooser[pr.cIdx], pr.gagSaid == taken)
	}
	p.history = ((p.history << 1) | b2u(taken)) & p.histMask

	mispredict = pr.Taken != taken
	if taken {
		if !pr.BTBHit || pr.Target != target {
			p.Stats.BTBMiss++
			if !mispredict {
				btbBubble = true
			}
		}
		p.btbInsert(pc, target)
	}
	if mispredict {
		p.Stats.DirMispredict++
	}
	return mispredict, btbBubble
}

// btbInsert installs or refreshes a BTB entry.
func (p *Predictor) btbInsert(pc, target uint64) {
	p.btbStamp++
	set := int((pc >> 2) % uint64(p.btbSets))
	tag := (pc >> 2) / uint64(p.btbSets)
	base := set * p.Cfg.BTBAssoc
	victim := base
	for w := 0; w < p.Cfg.BTBAssoc; w++ {
		e := &p.btb[base+w]
		if e.valid && e.tag == tag {
			e.target = target
			e.lru = p.btbStamp
			return
		}
		if !e.valid {
			victim = base + w
		} else if p.btb[victim].valid && e.lru < p.btb[victim].lru {
			victim = base + w
		}
	}
	p.btb[victim] = btbEntry{tag: tag, target: target, valid: true, lru: p.btbStamp}
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(ret uint64) {
	p.rasTop = (p.rasTop + 1) % len(p.ras)
	p.ras[p.rasTop] = ret
}

// PopRAS predicts a return target.
func (p *Predictor) PopRAS() uint64 {
	v := p.ras[p.rasTop]
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	return v
}

func bump(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
