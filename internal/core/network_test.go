package core

import (
	"testing"
	"testing/quick"

	"valuepred/internal/predictor"
	"valuepred/internal/trace"
)

// warm returns a classified stride predictor warmed so that pc predicts
// last+stride confidently.
func warm(pc uint64, last uint64, stride int64) predictor.Predictor {
	p := predictor.NewClassifiedStride()
	v := last - uint64(3*stride)
	for i := 0; i < 4; i++ {
		p.Update(pc, v)
		v += uint64(stride)
	}
	return p
}

func TestNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(Config{Banks: 3, PortsPerBank: 1, Predictor: predictor.NewStride()}); err == nil {
		t.Error("non-power-of-two banks accepted")
	}
	if _, err := NewNetwork(Config{Banks: 4, PortsPerBank: 0, Predictor: predictor.NewStride()}); err == nil {
		t.Error("zero ports accepted")
	}
	if _, err := NewNetwork(Config{Banks: 4, PortsPerBank: 1}); err == nil {
		t.Error("missing predictor accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{})
}

func TestDuplicatePCMergeAndExpansion(t *testing.T) {
	// pc warmed to last=100, stride=10: copy 0 gets 110, copy 1 gets 120,
	// copy 2 gets 130 — the paper's X+Δ, X+2Δ, X+3Δ sequence.
	pc := uint64(0x1000)
	n := MustNew(Config{Banks: 16, PortsPerBank: 1, Predictor: warm(pc, 100, 10)})
	slots := n.ProcessGroup([]uint64{pc, pc, pc})
	want := []uint64{110, 120, 130}
	for i, s := range slots {
		if !s.Valid {
			t.Fatalf("copy %d denied", i)
		}
		if s.Pred.Value != want[i] {
			t.Errorf("copy %d value = %d, want %d", i, s.Pred.Value, want[i])
		}
		if (i > 0) != s.Merged {
			t.Errorf("copy %d merged flag = %v", i, s.Merged)
		}
	}
	st := n.Stats()
	if st.Granted != 1 || st.MergedServed != 2 || st.Denied != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLastValueMergeReplicates(t *testing.T) {
	pc := uint64(0x2000)
	lv := predictor.NewLastValue()
	lv.Update(pc, 77)
	n := MustNew(Config{Banks: 4, PortsPerBank: 1, Predictor: lv})
	slots := n.ProcessGroup([]uint64{pc, pc})
	for i, s := range slots {
		if !s.Valid || s.Pred.Value != 77 {
			t.Errorf("copy %d = %+v, want value 77", i, s)
		}
	}
}

func TestBankConflictDenial(t *testing.T) {
	// Two different PCs mapping to the same bank of a 1-bank table: only
	// the first (program-order priority) is granted.
	p := predictor.NewClassifiedStride()
	for _, pc := range []uint64{0x1000, 0x2000} {
		for v := uint64(1); v <= 4; v++ {
			p.Update(pc, v)
		}
	}
	n := MustNew(Config{Banks: 1, PortsPerBank: 1, Predictor: p})
	slots := n.ProcessGroup([]uint64{0x1000, 0x2000})
	if !slots[0].Valid {
		t.Error("first requester denied")
	}
	if slots[1].Valid {
		t.Error("conflicting requester granted")
	}
	st := n.Stats()
	if st.Granted != 1 || st.Denied != 1 || st.BankConflicts != 1 {
		t.Errorf("stats = %+v", st)
	}
	// A duplicate of a denied PC is merged-denied.
	slots = n.ProcessGroup([]uint64{0x1000, 0x2000, 0x2000})
	if slots[2].Valid {
		t.Error("merged copy of denied primary got a value")
	}
	if n.Stats().MergedDenied != 1 {
		t.Errorf("MergedDenied = %d", n.Stats().MergedDenied)
	}
}

func TestMultiPortBank(t *testing.T) {
	p := predictor.NewClassifiedStride()
	for _, pc := range []uint64{0x1000, 0x2000} {
		for v := uint64(1); v <= 4; v++ {
			p.Update(pc, v)
		}
	}
	n := MustNew(Config{Banks: 1, PortsPerBank: 2, Predictor: p})
	slots := n.ProcessGroup([]uint64{0x1000, 0x2000})
	if !slots[0].Valid || !slots[1].Valid {
		t.Error("dual-ported bank denied a request")
	}
}

func TestDifferentBanksNoConflict(t *testing.T) {
	p := predictor.NewClassifiedStride()
	// 0x1000>>2 = 0x400 (bank 0 of 4); 0x1004>>2 = 0x401 (bank 1).
	for _, pc := range []uint64{0x1000, 0x1004} {
		for v := uint64(1); v <= 4; v++ {
			p.Update(pc, v)
		}
	}
	n := MustNew(Config{Banks: 4, PortsPerBank: 1, Predictor: p})
	slots := n.ProcessGroup([]uint64{0x1000, 0x1004})
	if !slots[0].Valid || !slots[1].Valid {
		t.Error("non-conflicting requests denied")
	}
	if n.Stats().Denied != 0 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

func TestHintDrop(t *testing.T) {
	hints := predictor.ProfileSource(trace.NewSliceSource(nil), 0.5) // empty profile: all default stride
	_ = hints
	drop := dropAll{}
	p := predictor.NewClassifiedStride()
	for v := uint64(1); v <= 4; v++ {
		p.Update(0x1000, v)
	}
	n := MustNew(Config{Banks: 1, PortsPerBank: 1, Predictor: p, Hints: drop})
	slots := n.ProcessGroup([]uint64{0x1000, 0x2000})
	if slots[0].Valid || slots[1].Valid {
		t.Error("hint-dropped request produced a value")
	}
	st := n.Stats()
	if st.HintDropped != 2 || st.Granted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

type dropAll struct{}

func (dropAll) HintFor(uint64) predictor.Hint { return predictor.HintNone }

func TestColdTable(t *testing.T) {
	n := MustNew(Config{Banks: 4, PortsPerBank: 1, Predictor: predictor.NewClassifiedStride()})
	slots := n.ProcessGroup([]uint64{0x1000, 0x1000})
	if slots[0].Valid || slots[1].Valid {
		t.Error("cold table produced values")
	}
	if n.Stats().Cold != 1 {
		t.Errorf("cold = %d", n.Stats().Cold)
	}
}

func TestUpdateTrains(t *testing.T) {
	n := MustNew(Config{Banks: 4, PortsPerBank: 1, Predictor: predictor.NewClassifiedStride()})
	for v := uint64(10); v <= 40; v += 10 {
		n.Update(0x1000, v)
	}
	slots := n.ProcessGroup([]uint64{0x1000})
	if !slots[0].Valid || slots[0].Pred.Value != 50 {
		t.Errorf("network update did not train the table: %+v", slots[0])
	}
}

// TestExpansionMatchesSequentialLookup: for a PC on a perfect stride, the
// distributor's expanded values must equal what per-copy sequential
// lookup+update would produce.
func TestExpansionMatchesSequentialLookup(t *testing.T) {
	f := func(start uint64, stride int16, copies uint8) bool {
		nCopies := int(copies%6) + 2
		pc := uint64(0x8000)
		d := int64(stride)
		// Reference: plain stride predictor with immediate updates.
		ref := predictor.NewStride()
		v := start
		ref.Update(pc, v)
		v += uint64(d)
		ref.Update(pc, v)
		var want []uint64
		for i := 0; i < nCopies; i++ {
			v += uint64(d)
			pr := ref.Lookup(pc)
			want = append(want, pr.Value)
			ref.Update(pc, v)
		}
		// Network: one merged group access.
		tbl := predictor.NewStride()
		tbl.Update(pc, start)
		tbl.Update(pc, start+uint64(d))
		n := MustNew(Config{Banks: 16, PortsPerBank: 1, Predictor: tbl})
		pcs := make([]uint64, nCopies)
		for i := range pcs {
			pcs[i] = pc
		}
		slots := n.ProcessGroup(pcs)
		for i, s := range slots {
			if !s.Valid || s.Pred.Value != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDenyRateAndBank(t *testing.T) {
	n := MustNew(Config{Banks: 8, PortsPerBank: 1, Predictor: predictor.NewStride()})
	if n.Bank(0x1000) != n.Bank(0x1000+8*4) {
		t.Error("bank mapping not modulo banks")
	}
	if n.Bank(0x1000) == n.Bank(0x1004) {
		t.Error("adjacent instructions must hit different banks")
	}
	if n.Stats().DenyRate() != 0 {
		t.Error("fresh network has nonzero deny rate")
	}
}

func TestDeniedFlagSemantics(t *testing.T) {
	// A cold table yields !Valid but not Denied; a bank conflict yields
	// Denied.
	p := predictor.NewClassifiedStride()
	for v := uint64(1); v <= 4; v++ {
		p.Update(0x1000, v)
		p.Update(0x2000, v)
	}
	n := MustNew(Config{Banks: 1, PortsPerBank: 1, Predictor: p})
	slots := n.ProcessGroup([]uint64{0x1000, 0x2000, 0x3000})
	if slots[0].Denied {
		t.Error("granted slot marked denied")
	}
	if !slots[1].Denied {
		t.Error("bank-conflicted slot not marked denied")
	}
	// 0x3000 also conflicts on the single bank this cycle.
	if !slots[2].Denied {
		t.Error("second conflicting slot not marked denied")
	}
	// Next cycle, alone: 0x3000 is granted but cold — not denied.
	slots = n.ProcessGroup([]uint64{0x3000})
	if slots[0].Valid || slots[0].Denied {
		t.Errorf("cold slot = %+v, want !Valid && !Denied", slots[0])
	}
}
