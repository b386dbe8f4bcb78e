package core

import (
	"bytes"
	"testing"

	"leaftl/internal/addr"
)

// tuneTable builds a table with one written group and returns its id.
func tuneTable(t *testing.T, gamma int) (*Table, addr.GroupID) {
	t.Helper()
	tb := NewTable(gamma)
	pairs := make([]addr.Mapping, 0, 32)
	lpa := addr.LPA(0)
	for i := 0; i < 32; i++ {
		lpa += addr.LPA(1 + i%3)
		pairs = append(pairs, addr.Mapping{LPA: lpa, PPA: addr.PPA(1000 + i)})
	}
	tb.Update(pairs)
	return tb, addr.Group(pairs[0].LPA)
}

func TestGroupGammaDefaultsAndClamp(t *testing.T) {
	tb, gid := tuneTable(t, 8)
	if g := tb.GroupGamma(gid); g != 8 {
		t.Fatalf("new group gamma = %d, want the table's 8", g)
	}
	if g := tb.GroupGamma(gid + 100); g != 8 {
		t.Errorf("absent group gamma = %d, want table default 8", g)
	}
	if tb.SetGroupGamma(gid+100, 2) {
		t.Error("SetGroupGamma accepted an absent group")
	}
	if !tb.SetGroupGamma(gid, 99) {
		t.Fatal("SetGroupGamma rejected a resident group")
	}
	if g := tb.GroupGamma(gid); g != 8 {
		t.Errorf("gamma clamped to %d, want the global bound 8", g)
	}
	tb.SetGroupGamma(gid, 3)
	if g := tb.GroupGamma(gid); g != 3 {
		t.Errorf("gamma = %d, want 3", g)
	}
	if m := tb.MaxGroupGamma(); m != 8 {
		// Other groups stay at 8.
		if m != 8 && m != 3 {
			t.Errorf("MaxGroupGamma = %d", m)
		}
	}
}

func TestNoteReadCountersAndHint(t *testing.T) {
	tb, gid := tuneTable(t, 8)
	base := addr.GroupBase(gid)
	lpa := base + 1

	// Exact reads advance only the window.
	tb.NoteRead(lpa, 100, 100, false, false)
	// An approx miss with delta +3, twice: second repeat arms the hint.
	tb.NoteRead(lpa, 100, 103, true, false)
	got := tb.GroupTunes()
	var tu GroupTune
	for _, g := range got {
		if g.Group == gid {
			tu = g
		}
	}
	if tu.Reads != 2 || tu.Misses != 1 || tu.Costly != 1 {
		t.Fatalf("after one miss: %+v", tu)
	}
	if _, res, ok := tb.Lookup(lpa); ok && res.Hint != 0 {
		t.Error("hint armed after a single miss")
	}
	tb.NoteRead(lpa, 100, 103, true, true) // hint-resolved repeat
	for _, g := range tb.GroupTunes() {
		if g.Group == gid {
			tu = g
		}
	}
	if tu.Streak < 2 || tu.Hint != 3 {
		t.Fatalf("streak/hint not armed: %+v", tu)
	}
	if tu.Costly != 1 {
		t.Errorf("hint-resolved miss counted as costly: %+v", tu)
	}
	// An approx hit disarms the streak (keeps the last delta).
	tb.NoteRead(lpa, 100, 100, true, false)
	for _, g := range tb.GroupTunes() {
		if g.Group == gid {
			tu = g
		}
	}
	if tu.Streak != 0 {
		t.Errorf("approx hit did not disarm: %+v", tu)
	}
}

func TestRetuneGammaDemotesAndPromotes(t *testing.T) {
	tb, gid := tuneTable(t, 8)
	base := addr.GroupBase(gid)
	cfg := TuneConfig{TargetMissRatio: 0.02, MinReads: 64}

	// Below the observation floor: no decision.
	for i := 0; i < 10; i++ {
		tb.NoteRead(base+1, 100, 105, true, false)
	}
	if changed := tb.RetuneGamma(cfg); len(changed) != 0 {
		t.Fatalf("retune acted below MinReads: %v", changed)
	}

	// A window with a high costly ratio goes straight to exact.
	for i := 0; i < 100; i++ {
		tb.NoteRead(base+1, 100, 105, true, false)
	}
	changed := tb.RetuneGamma(cfg)
	if len(changed) != 1 || changed[0] != gid {
		t.Fatalf("demotion changed %v, want [%d]", changed, gid)
	}
	if g := tb.GroupGamma(gid); g != 0 {
		t.Fatalf("hopeless group at gamma %d, want 0 (fast demote)", g)
	}

	// Mild costly ratio: halving ladder. Reset to 8 first.
	tb.SetGroupGamma(gid, 8)
	for i := 0; i < 1000; i++ {
		miss := i%30 == 0 // ~3.3% costly, between target and 2x target
		tb.NoteRead(base+1, 100, 100, !miss, false)
		if miss {
			tb.NoteRead(base+1, 100, 105, true, false)
		}
	}
	tb.RetuneGamma(cfg)
	if g := tb.GroupGamma(gid); g != 4 {
		t.Fatalf("mildly missing group at gamma %d, want 4", g)
	}

	// Clean windows promote back toward the bound, never past it.
	for steps := 0; steps < 10; steps++ {
		for i := 0; i < 100; i++ {
			tb.NoteRead(base+1, 100, 100, false, false)
		}
		tb.RetuneGamma(cfg)
	}
	if g := tb.GroupGamma(gid); g != 8 {
		t.Fatalf("promotion settled at %d, want the global bound 8", g)
	}
	if m := tb.MaxGroupGamma(); m > tb.Gamma() {
		t.Fatalf("MaxGroupGamma %d exceeds table gamma %d", m, tb.Gamma())
	}
}

// TestTuneStateRoundTripsThroughGroupRecord pins the acceptance
// criterion: a group's adaptive-γ state survives MarshalGroup/
// InstallGroup (the page-out/page-in path) bit-identically.
func TestTuneStateRoundTripsThroughGroupRecord(t *testing.T) {
	tb, gid := tuneTable(t, 8)
	base := addr.GroupBase(gid)
	tb.SetGroupGamma(gid, 3)
	tb.NoteRead(base+1, 100, 104, true, false)
	tb.NoteRead(base+1, 100, 104, true, true)
	tb.NoteRead(base+2, 200, 200, true, false)

	img, err := tb.MarshalGroup(gid)
	if err != nil {
		t.Fatal(err)
	}
	before := tb.GroupTunes()

	if tb.detachGroup(gid) == nil {
		t.Fatal("detach failed")
	}
	if gid2, err := tb.InstallGroup(img); err != nil || gid2 != gid {
		t.Fatalf("install: %v (gid %d)", err, gid2)
	}
	after := tb.GroupTunes()
	if len(before) != len(after) {
		t.Fatalf("group count changed: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("tune state diverged after page-out/page-in: %+v vs %+v", before[i], after[i])
		}
	}
	img2, err := tb.MarshalGroup(gid)
	if err != nil || !bytes.Equal(img, img2) {
		t.Fatalf("group record not bit-identical after round trip (err %v)", err)
	}

	// Full snapshots carry the state too.
	snap, err := tb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewTable(0)
	if err := fresh.UnmarshalBinary(snap); err != nil {
		t.Fatal(err)
	}
	got := fresh.GroupTunes()
	for i := range before {
		if before[i] != got[i] {
			t.Fatalf("tune state diverged through snapshot: %+v vs %+v", before[i], got[i])
		}
	}
}

// TestInstallGroupRejectsExcessGamma: records claiming a tuned γ above
// the installing table's bound are corrupt and must not install.
func TestInstallGroupRejectsExcessGamma(t *testing.T) {
	tb, gid := tuneTable(t, 8)
	img, err := tb.MarshalGroup(gid)
	if err != nil {
		t.Fatal(err)
	}
	low := NewTable(4)
	if _, err := low.InstallGroup(img); err == nil {
		t.Fatal("record with gamma 8 installed into a gamma-4 table")
	}
	same := NewTable(8)
	if _, err := same.InstallGroup(img); err != nil {
		t.Fatalf("matching-bound install failed: %v", err)
	}
}
