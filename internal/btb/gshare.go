package btb

// GShare combines a global-history XOR-indexed pattern table for branch
// directions (McFarling's gshare) with a BTB for targets. It postdates the
// paper's PAp configuration slightly and is included to quantify the
// paper's Section 5 claim that better branch prediction directly buys more
// value-prediction gain (see ablation.btb).
type GShare struct {
	pht     []uint8 // 2-bit counters
	mask    uint64
	history uint64
	// target store: direct-mapped, tagged
	targets []targetEntry
	tmask   uint64
}

type targetEntry struct {
	valid  bool
	tag    uint64
	target uint64
}

// The pattern-history table holds 16K 2-bit counters and the target
// buffer 2K entries: a hardware budget comparable to the paper's 2K-entry
// PAp BTB. Both are powers of two, so an index is a mask.
const (
	gsharePHTEntries    = 16384
	gshareTargetEntries = 2048
)

// NewGShare builds a gshare predictor.
func NewGShare() *GShare {
	pht := make([]uint8, gsharePHTEntries)
	for i := range pht {
		pht[i] = 1 // weakly not-taken
	}
	return &GShare{
		pht:     pht,
		mask:    gsharePHTEntries - 1,
		targets: make([]targetEntry, gshareTargetEntries),
		tmask:   gshareTargetEntries - 1,
	}
}

// Name implements Predictor.
func (g *GShare) Name() string { return "gshare" }

func (g *GShare) phtIndex(pc uint64) uint64 { return (pc>>2 ^ g.history) & g.mask }

func (g *GShare) targetSlot(pc uint64) *targetEntry { return &g.targets[(pc>>2)&g.tmask] }

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64, _ bool, _ uint64) Prediction {
	taken := g.pht[g.phtIndex(pc)] >= 2
	t := g.targetSlot(pc)
	if t.valid && t.tag == pc {
		return Prediction{Taken: taken, Target: t.target, TargetValid: true}
	}
	return Prediction{Taken: taken}
}

// Update implements Predictor: it trains the counter under the current
// history, shifts the global history, and records taken targets.
func (g *GShare) Update(pc uint64, taken bool, target uint64) {
	c := &g.pht[g.phtIndex(pc)]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
	g.history = g.history<<1 | uint64(boolBit(taken))
	if taken {
		t := g.targetSlot(pc)
		t.valid = true
		t.tag = pc
		t.target = target
	}
}

var _ Predictor = (*GShare)(nil)
