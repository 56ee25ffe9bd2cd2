// Package btb implements the branch predictors of Section 5: an ideal
// (perfect) predictor and a 2-level branch target buffer in PAp
// configuration (Yeh & Patt) — a 2K-entry, 2-way set-associative first
// level where each entry keeps a 4-bit per-branch history register indexing
// a per-branch pattern table of 2-bit counters, plus the branch target. The
// BTB is assumed capable of predicting multiple branches per cycle, as the
// paper assumes.
package btb

// Prediction is a direction/target prediction for one control instruction.
type Prediction struct {
	// Taken is the predicted direction (always true for predicted jumps).
	Taken bool
	// Target is the predicted target, meaningful when TargetValid.
	Target      uint64
	TargetValid bool
}

// Predictor predicts control instructions. Predict must not change
// predictor state; the fetch engine calls Update exactly once per fetched
// control instruction. The actual outcome is passed to Predict so that the
// perfect predictor can be expressed under the same interface; real
// predictors ignore it.
type Predictor interface {
	Predict(pc uint64, actualTaken bool, actualTarget uint64) Prediction
	Update(pc uint64, taken bool, target uint64)
	Name() string
}

// Perfect is the ideal branch predictor: always right.
type Perfect struct{}

// NewPerfect returns the ideal predictor.
func NewPerfect() Perfect { return Perfect{} }

// Name implements Predictor.
func (Perfect) Name() string { return "ideal-btb" }

// Predict implements Predictor by echoing the actual outcome.
func (Perfect) Predict(_ uint64, actualTaken bool, actualTarget uint64) Prediction {
	return Prediction{Taken: actualTaken, Target: actualTarget, TargetValid: true}
}

// Update implements Predictor (no state).
func (Perfect) Update(uint64, bool, uint64) {}

// TwoLevelConfig parameterises the PAp BTB.
type TwoLevelConfig struct {
	// Entries is the first-level size (paper: 2048). Must be a positive
	// power of two and a multiple of Ways.
	Entries int
	// Ways is the set associativity (paper: 2).
	Ways int
	// HistoryBits is the per-branch history length (paper: 4).
	HistoryBits int
}

// DefaultTwoLevelConfig returns the paper's configuration: 2K entries,
// 2-way, 4-bit histories.
func DefaultTwoLevelConfig() TwoLevelConfig {
	return TwoLevelConfig{Entries: 2048, Ways: 2, HistoryBits: 4}
}

type btbEntry struct {
	valid   bool
	history uint8
	tag     uint64
	target  uint64
	lru     uint64
}

// TwoLevel is the 2-level PAp BTB. It keeps its entries and their pattern
// tables in two flat arrays: set s is entries [s*Ways, (s+1)*Ways), and
// entry e's 2-bit counters are counters [e<<HistoryBits, (e+1)<<HistoryBits),
// indexed by its history.
type TwoLevel struct {
	cfg      TwoLevelConfig
	entries  []btbEntry
	counters []uint8
	setMask  uint64
	histMax  uint8
	tick     uint64
}

// NewTwoLevel returns a PAp BTB with the given configuration.
func NewTwoLevel(cfg TwoLevelConfig) *TwoLevel {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic("btb: Entries must be a positive power of two")
	}
	if cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic("btb: Ways must divide Entries")
	}
	if cfg.HistoryBits < 1 || cfg.HistoryBits > 8 {
		panic("btb: HistoryBits out of range")
	}
	return &TwoLevel{
		cfg:      cfg,
		entries:  make([]btbEntry, cfg.Entries),
		counters: make([]uint8, cfg.Entries<<cfg.HistoryBits),
		setMask:  uint64(cfg.Entries/cfg.Ways - 1),
		histMax:  uint8(1<<cfg.HistoryBits - 1),
	}
}

// Name implements Predictor.
func (t *TwoLevel) Name() string { return "2level-btb" }

// set returns the index of pc's set's first entry.
func (t *TwoLevel) set(pc uint64) int { return int((pc>>2)&t.setMask) * t.cfg.Ways }

// find returns the index of pc's entry, or -1 on a miss.
func (t *TwoLevel) find(pc uint64) int {
	first := t.set(pc)
	for i := first; i < first+t.cfg.Ways; i++ {
		if t.entries[i].valid && t.entries[i].tag == pc {
			return i
		}
	}
	return -1
}

// counter returns the pattern counter entry i's history selects.
func (t *TwoLevel) counter(i int) *uint8 {
	return &t.counters[i<<t.cfg.HistoryBits|int(t.entries[i].history)]
}

// Predict implements Predictor. A BTB miss predicts not-taken with no
// target.
func (t *TwoLevel) Predict(pc uint64, _ bool, _ uint64) Prediction {
	i := t.find(pc)
	if i < 0 {
		return Prediction{}
	}
	return Prediction{Taken: *t.counter(i) >= 2, Target: t.entries[i].target, TargetValid: true}
}

// Update implements Predictor: it trains the pattern counter selected by
// the branch's history, shifts the history, and records the taken target.
// A miss allocates an entry, evicting the set's first invalid way or else
// its LRU way, with every counter weakly not-taken.
func (t *TwoLevel) Update(pc uint64, taken bool, target uint64) {
	t.tick++
	i := t.find(pc)
	if i < 0 {
		first := t.set(pc)
		i = first
		for w := first; w < first+t.cfg.Ways; w++ {
			if !t.entries[w].valid {
				i = w
				break
			}
			if t.entries[w].lru < t.entries[i].lru {
				i = w
			}
		}
		t.entries[i] = btbEntry{valid: true, tag: pc}
		pattern := t.counters[i<<t.cfg.HistoryBits : (i+1)<<t.cfg.HistoryBits]
		for j := range pattern {
			pattern[j] = 1 // weakly not-taken
		}
	}
	c := t.counter(i)
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
	e := &t.entries[i]
	e.history = (e.history<<1 | boolBit(taken)) & t.histMax
	if taken {
		e.target = target
	}
	e.lru = t.tick
}

func boolBit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

var (
	_ Predictor = Perfect{}
	_ Predictor = (*TwoLevel)(nil)
)
