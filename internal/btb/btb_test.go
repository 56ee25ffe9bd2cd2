package btb

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestPerfect(t *testing.T) {
	p := NewPerfect()
	if p.Name() == "" {
		t.Error("no name")
	}
	f := func(pc, target uint64, taken bool) bool {
		pred := p.Predict(pc, taken, target)
		return pred.Taken == taken && pred.TargetValid && pred.Target == target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	p.Update(1, true, 2) // must not panic
}

func TestTwoLevelColdMiss(t *testing.T) {
	b := NewTwoLevel(DefaultTwoLevelConfig())
	pred := b.Predict(0x1000, true, 0x2000)
	if pred.Taken || pred.TargetValid {
		t.Errorf("cold predict = %+v, want not-taken, no target", pred)
	}
}

func TestTwoLevelLearnsLoop(t *testing.T) {
	b := NewTwoLevel(DefaultTwoLevelConfig())
	pc, target := uint64(0x1000), uint64(0x800)
	// An always-taken loop branch: after a few iterations the predictor
	// must say taken with the right target.
	for i := 0; i < 8; i++ {
		b.Update(pc, true, target)
	}
	pred := b.Predict(pc, true, target)
	if !pred.Taken || !pred.TargetValid || pred.Target != target {
		t.Errorf("loop branch not learned: %+v", pred)
	}
}

func TestTwoLevelLearnsAlternating(t *testing.T) {
	b := NewTwoLevel(DefaultTwoLevelConfig())
	pc, target := uint64(0x2000), uint64(0x100)
	// Strictly alternating T,N,T,N...: with 4 bits of history the pattern
	// table must learn it perfectly after warmup.
	taken := true
	for i := 0; i < 64; i++ {
		b.Update(pc, taken, target)
		taken = !taken
	}
	correct := 0
	for i := 0; i < 32; i++ {
		pred := b.Predict(pc, taken, target)
		if pred.Taken == taken {
			correct++
		}
		b.Update(pc, taken, target)
		taken = !taken
	}
	if correct < 31 {
		t.Errorf("alternating pattern: %d/32 correct", correct)
	}
}

func TestTwoLevelLearnsPeriodicPattern(t *testing.T) {
	b := NewTwoLevel(DefaultTwoLevelConfig())
	pc, target := uint64(0x3000), uint64(0x200)
	// Pattern TTTN repeating (an inner loop of 4 iterations): 4-bit
	// history suffices.
	pattern := []bool{true, true, true, false}
	for i := 0; i < 200; i++ {
		b.Update(pc, pattern[i%4], target)
	}
	correct := 0
	for i := 0; i < 40; i++ {
		taken := pattern[i%4]
		if b.Predict(pc, taken, target).Taken == taken {
			correct++
		}
		b.Update(pc, taken, target)
	}
	if correct < 39 {
		t.Errorf("TTTN pattern: %d/40 correct", correct)
	}
}

func TestTwoLevelTargetFollowsLastTaken(t *testing.T) {
	b := NewTwoLevel(DefaultTwoLevelConfig())
	pc := uint64(0x4000)
	b.Update(pc, true, 0x111<<2)
	b.Update(pc, true, 0x222<<2)
	if pred := b.Predict(pc, true, 0); pred.Target != 0x222<<2 {
		t.Errorf("target = %#x, want latest taken target", pred.Target)
	}
	// Not-taken updates must not clobber the stored target.
	b.Update(pc, false, 0)
	if pred := b.Predict(pc, true, 0); pred.Target != 0x222<<2 {
		t.Error("not-taken update clobbered target")
	}
}

func TestTwoLevelEviction(t *testing.T) {
	cfg := TwoLevelConfig{Entries: 4, Ways: 2, HistoryBits: 2} // 2 sets
	b := NewTwoLevel(cfg)
	// Three PCs mapping to the same set (pc>>2 even -> set 0).
	pcs := []uint64{0x1000, 0x1010, 0x1020}
	for _, pc := range pcs {
		for i := 0; i < 4; i++ {
			b.Update(pc, true, pc+0x100)
		}
	}
	// The LRU victim (0x1000) must be gone; the most recent two present.
	if pred := b.Predict(0x1000, true, 0); pred.TargetValid {
		t.Error("LRU entry survived eviction")
	}
	for _, pc := range pcs[1:] {
		if pred := b.Predict(pc, true, 0); !pred.TargetValid || pred.Target != pc+0x100 {
			t.Errorf("recent entry %#x evicted: %+v", pc, pred)
		}
	}
}

// refTwoLevel is the 2-level BTB as it was stored before its flat layout:
// one slice per set and a pattern slice per entry, allocated on every
// miss. TestTwoLevelMatchesReference holds TwoLevel to it.
type refTwoLevel struct {
	sets    [][]refEntry
	setMask uint64
	histMax uint8
	tick    uint64
}

type refEntry struct {
	valid   bool
	tag     uint64
	history uint8
	pattern []uint8
	target  uint64
	lru     uint64
}

func newRefTwoLevel(cfg TwoLevelConfig) *refTwoLevel {
	sets := make([][]refEntry, cfg.Entries/cfg.Ways)
	for i := range sets {
		sets[i] = make([]refEntry, cfg.Ways)
	}
	return &refTwoLevel{sets: sets, setMask: uint64(len(sets) - 1), histMax: uint8(1<<cfg.HistoryBits - 1)}
}

func (t *refTwoLevel) find(pc uint64) *refEntry {
	set := t.sets[(pc>>2)&t.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			return &set[i]
		}
	}
	return nil
}

func (t *refTwoLevel) Predict(pc uint64) Prediction {
	e := t.find(pc)
	if e == nil {
		return Prediction{}
	}
	return Prediction{Taken: e.pattern[e.history] >= 2, Target: e.target, TargetValid: true}
}

func (t *refTwoLevel) Update(pc uint64, taken bool, target uint64) {
	t.tick++
	e := t.find(pc)
	if e == nil {
		set := t.sets[(pc>>2)&t.setMask]
		victim := &set[0]
		for i := range set {
			if !set[i].valid {
				victim = &set[i]
				break
			}
			if set[i].lru < victim.lru {
				victim = &set[i]
			}
		}
		pattern := make([]uint8, int(t.histMax)+1)
		for i := range pattern {
			pattern[i] = 1
		}
		*victim = refEntry{valid: true, tag: pc, pattern: pattern}
		e = victim
	}
	c := &e.pattern[e.history]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
	e.history = (e.history<<1 | boolBit(taken)) & t.histMax
	if taken {
		e.target = target
	}
	e.lru = t.tick
}

// TestTwoLevelMatchesReference runs random branch streams through the flat
// BTB and the reference layout in the three configurations the experiments
// use. The branches crowd a few sets with more tags than ways, so entries
// are evicted and reallocated, and each must predict as the reference
// does before every update, also for a branch it may have evicted.
func TestTwoLevelMatchesReference(t *testing.T) {
	for _, cfg := range []TwoLevelConfig{
		DefaultTwoLevelConfig(),
		{Entries: 512, Ways: 2, HistoryBits: 4},
		{Entries: 8192, Ways: 4, HistoryBits: 6},
	} {
		b, ref := NewTwoLevel(cfg), newRefTwoLevel(cfg)
		sets := uint64(cfg.Entries / cfg.Ways)
		rng := rand.New(rand.NewPCG(1, uint64(cfg.Entries)))
		pcOf := func() uint64 {
			set, tag := rng.Uint64N(6)*(sets/6), rng.Uint64N(uint64(3*cfg.Ways))
			return (tag*sets + set) << 2
		}
		for step := range 200_000 {
			pc, other := pcOf(), pcOf()
			taken := rng.Uint64N(3) != 0
			target := uint64(0x4000 + 4*rng.Uint64N(4))
			for _, q := range []uint64{pc, other} {
				if got, want := b.Predict(q, false, 0), ref.Predict(q); got != want {
					t.Fatalf("%+v step %d: Predict(%#x) = %+v, reference %+v", cfg, step, q, got, want)
				}
			}
			b.Update(pc, taken, target)
			ref.Update(pc, taken, target)
		}
	}
}

func TestTwoLevelConfigPanics(t *testing.T) {
	bad := []TwoLevelConfig{
		{Entries: 0, Ways: 2, HistoryBits: 4},
		{Entries: 3, Ways: 1, HistoryBits: 4},
		{Entries: 8, Ways: 3, HistoryBits: 4},
		{Entries: 8, Ways: 2, HistoryBits: 0},
		{Entries: 8, Ways: 2, HistoryBits: 9},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewTwoLevel(cfg)
		}()
	}
}

func TestGShareLearnsLoop(t *testing.T) {
	g := NewGShare()
	pc, target := uint64(0x1000), uint64(0x800)
	for i := 0; i < 16; i++ {
		g.Update(pc, true, target)
	}
	pred := g.Predict(pc, true, target)
	if !pred.Taken || !pred.TargetValid || pred.Target != target {
		t.Errorf("loop branch not learned: %+v", pred)
	}
}

func TestGShareUsesGlobalHistory(t *testing.T) {
	// A branch whose direction equals the previous branch's direction is
	// perfectly correlated through global history even though its own
	// local pattern alternates.
	g := NewGShare()
	a, b := uint64(0x1000), uint64(0x2000)
	dir := true
	for i := 0; i < 400; i++ {
		g.Update(a, dir, 0x10)
		g.Update(b, dir, 0x20) // b copies a
		dir = !dir
	}
	correct := 0
	for i := 0; i < 40; i++ {
		g.Update(a, dir, 0x10)
		if g.Predict(b, dir, 0x20).Taken == dir {
			correct++
		}
		g.Update(b, dir, 0x20)
		dir = !dir
	}
	if correct < 38 {
		t.Errorf("correlated branch: %d/40 correct", correct)
	}
}
