package core

import (
	"testing"

	"leaftl/internal/addr"
)

// buildMixedTable commits a mix of sequential, strided and irregular
// batches so groups carry multiple levels, approximate segments and CRB
// entries — the state a round trip must preserve exactly.
func buildMixedTable(t *testing.T, gamma int) *Table {
	t.Helper()
	tab := NewTable(gamma)
	commit := func(lpas []addr.LPA, base addr.PPA) {
		pairs := make([]addr.Mapping, len(lpas))
		for i, l := range lpas {
			pairs[i] = addr.Mapping{LPA: l, PPA: base + addr.PPA(i)}
		}
		tab.Update(pairs)
	}
	for g := 0; g < 8; g++ {
		start := addr.LPA(g * 256)
		seq := make([]addr.LPA, 256)
		for i := range seq {
			seq[i] = start + addr.LPA(i)
		}
		commit(seq, addr.PPA(g*1000))
	}
	commit([]addr.LPA{10, 13, 17, 20, 29}, 50000)
	commit([]addr.LPA{300, 302, 305, 309}, 51000)
	commit([]addr.LPA{512, 514, 516, 518, 520}, 52000)
	commit([]addr.LPA{11, 12, 13, 14}, 53000)
	return tab
}

// lookupAll snapshots every translation of the table's covered space.
func lookupAll(tab *Table, pages int) map[addr.LPA]addr.PPA {
	out := make(map[addr.LPA]addr.PPA)
	for l := 0; l < pages; l++ {
		if ppa, _, ok := tab.Lookup(addr.LPA(l)); ok {
			out[addr.LPA(l)] = ppa
		}
	}
	return out
}

// TestGroupRoundTrip evicts every group through MarshalGroup/detachGroup
// and reinstalls it, asserting translations and incremental statistics
// come back bit-identical.
func TestGroupRoundTrip(t *testing.T) {
	tab := buildMixedTable(t, 4)
	want := lookupAll(tab, 8*256)
	wantStats := tab.Stats()

	images := make(map[addr.GroupID][]byte)
	for _, gid := range tab.ResidentGroups() {
		img, err := tab.MarshalGroup(gid)
		if err != nil {
			t.Fatalf("marshal group %d: %v", gid, err)
		}
		images[gid] = img
		foot := tab.GroupFootprint(gid)
		g := tab.detachGroup(gid)
		if g == nil || g.footprint() != foot {
			t.Fatalf("detach group %d: got %v, footprint %d", gid, g, foot)
		}
	}
	if tab.SizeBytes() != 0 || tab.Stats().Groups != 0 {
		t.Fatalf("table not empty after dropping all groups: %+v", tab.Stats())
	}
	for gid, img := range images {
		got, err := tab.InstallGroup(img)
		if err != nil || got != gid {
			t.Fatalf("install group %d: got %d, %v", gid, got, err)
		}
	}
	if got := lookupAll(tab, 8*256); len(got) != len(want) {
		t.Fatalf("round trip lost mappings: %d != %d", len(got), len(want))
	} else {
		for l, ppa := range want {
			if got[l] != ppa {
				t.Fatalf("round trip changed Lookup(%d): %d != %d", l, got[l], ppa)
			}
		}
	}
	if got := tab.Stats(); got != wantStats {
		t.Fatalf("round trip changed stats:\n got %+v\nwant %+v", got, wantStats)
	}
	// The incremental counters must agree with a from-scratch rebuild.
	tab.recomputeStats()
	if got := tab.Stats(); got != wantStats {
		t.Fatalf("incremental stats diverge from recomputed:\n got %+v\nwant %+v", got, wantStats)
	}
}

// TestInstallGroupRejectsResident pins the aliasing guard: installing an
// image over live group state must fail, not silently fork the mapping.
func TestInstallGroupRejectsResident(t *testing.T) {
	tab := buildMixedTable(t, 4)
	img, err := tab.MarshalGroup(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.InstallGroup(img); err == nil {
		t.Fatal("install over a resident group succeeded")
	}
	if _, err := tab.InstallGroup(img[:len(img)-1]); err == nil {
		t.Fatal("truncated group record accepted")
	}
	if _, err := tab.InstallGroup(append(append([]byte(nil), img...), 0)); err == nil {
		t.Fatal("group record with trailing bytes accepted")
	}
}

// TestPagerBudgetAndClock drives a pager over a table and asserts the
// budget holds after every enforcement, faults demand-load evicted
// groups, and recently used groups survive the CLOCK sweep.
func TestPagerBudgetAndClock(t *testing.T) {
	tab := buildMixedTable(t, 4)
	p := NewPager(tab, 4096)
	p.SetBudget(tab.SizeBytes() / 3)
	if cost := p.Enforce(); cost.MetaWrites == 0 {
		t.Fatal("shrinking below a full table wrote nothing back")
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if tab.SizeBytes() > p.Budget() {
		t.Fatalf("resident %d exceeds budget %d", tab.SizeBytes(), p.Budget())
	}
	if p.EvictedGroups() == 0 || p.TranslationPages() == 0 {
		t.Fatalf("no evictions under a binding budget: %d groups, %d pages",
			p.EvictedGroups(), p.TranslationPages())
	}

	// Fault an evicted group back in: charged as translation-page reads.
	var gid addr.GroupID
	found := false
	for g := addr.GroupID(0); g < 8; g++ {
		if !tab.HasGroup(g) {
			gid, found = g, true
			break
		}
	}
	if !found {
		t.Fatal("no evicted group to fault")
	}
	cost, known := p.EnsureRead(gid)
	if !known || cost.MetaReads == 0 {
		t.Fatalf("fault of group %d: known=%v cost=%+v", gid, known, cost)
	}
	if !tab.HasGroup(gid) {
		t.Fatal("fault did not load the group")
	}
	p.Enforce()
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}

	// A hot group (touched every round) stays resident across many
	// enforcement rounds while cold groups rotate: the sweep always finds
	// an unreferenced cold victim before wrapping back to the
	// re-referenced hot group. The ring needs ≥ 3 slots for that
	// guarantee (hot + the just-loaded cold + at least one older cold),
	// so widen the budget to half the table first.
	p.SetBudget(p.FullSizeBytes() / 2)
	for g := addr.GroupID(0); g < 8; g++ {
		p.EnsureRead(g)
	}
	p.Enforce()
	hot := tab.ResidentGroups()[0]
	for i := 0; i < 40; i++ {
		if _, known := p.EnsureRead(hot); !known {
			t.Fatal("hot group vanished")
		}
		var cold addr.GroupID
		for g := addr.GroupID(0); g < 8; g++ {
			if g != hot && !tab.HasGroup(g) {
				cold = g
				break
			}
		}
		p.EnsureRead(cold)
		p.Enforce()
		if !tab.HasGroup(hot) {
			t.Fatalf("round %d: CLOCK evicted the hot group", i)
		}
		if err := p.Check(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}

	// Unknown groups stay unknown (and free).
	if cost, known := p.EnsureRead(9999); known || cost.MetaReads != 0 || cost.MetaWrites != 0 {
		t.Fatalf("unknown group: known=%v cost=%+v", known, cost)
	}
}

// TestSnapshotWithImages pins that a full snapshot of a partially
// evicted table equals the snapshot of the never-evicted table.
func TestSnapshotWithImages(t *testing.T) {
	full := buildMixedTable(t, 4)
	want, err := full.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	paged := buildMixedTable(t, 4)
	p := NewPager(paged, 4096)
	p.SetBudget(paged.SizeBytes() / 4)
	p.Enforce()
	if p.EvictedGroups() == 0 {
		t.Fatal("budget did not evict")
	}
	got, err := paged.SnapshotWith(p.EvictedImages())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("snapshot of paged table differs from fully resident snapshot")
	}
}

// TestCleanEvictionRestoresImageTune pins what a page-in brings back
// after a clean eviction: NoteRead advances a resident group's tune
// block without dirtying it, so the eviction writes nothing and the
// group comes back with the image's older tune block — exactly what
// decoding the image gives, on both persistence paths.
func TestCleanEvictionRestoresImageTune(t *testing.T) {
	for _, journaled := range []bool{false, true} {
		name := "image"
		if journaled {
			name = "journal"
		}
		t.Run(name, func(t *testing.T) {
			tab := buildMixedTable(t, 4)
			p := NewPager(tab, 4096)
			if journaled {
				p.EnableJournal()
			}
			p.SetBudget(tab.SizeBytes())
			p.FlushDirty()
			const gid = addr.GroupID(0)
			e := p.gmd[gid]
			if e == nil || !e.resident || e.dirty {
				t.Fatalf("group %d not resident and clean after FlushDirty: %+v", gid, e)
			}
			img := append([]byte(nil), p.currentImage(gid, e)...)
			ref := NewTable(4)
			if _, err := ref.InstallGroup(img); err != nil {
				t.Fatal(err)
			}
			want := ref.lookupGroup(gid).tune

			lpa := addr.GroupBase(gid) + 40
			ppa, _, ok := tab.Lookup(lpa)
			if !ok {
				t.Fatalf("LPA %d unmapped", lpa)
			}
			tab.NoteRead(lpa, ppa, ppa, false, false)
			if tab.lookupGroup(gid).tune == want {
				t.Fatal("NoteRead left the tune block unchanged")
			}
			if e.dirty {
				t.Fatal("NoteRead dirtied the group")
			}

			if cost := p.evict(gid, e); cost.MetaWrites != 0 {
				t.Fatalf("clean eviction wrote %d pages", cost.MetaWrites)
			}
			if err := p.Check(); err != nil {
				t.Fatal(err)
			}
			if _, known := p.EnsureRead(gid); !known || !tab.HasGroup(gid) {
				t.Fatal("page-in did not make the group resident")
			}
			if got := tab.lookupGroup(gid).tune; got != want {
				t.Fatalf("page-in restored tune %+v, the image holds %+v", got, want)
			}
			if err := p.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPagerCheckRejectsAlteredParkedCopy pins the parked-copy audit:
// page-in reattaches the decoded group kept at eviction without reading
// the image, so Check must notice any way that copy drifts from the
// image — in a wire field, the tune block, or decoded-only state (level
// keys, the segment cache, the CRB owner index).
func TestPagerCheckRejectsAlteredParkedCopy(t *testing.T) {
	alterations := []struct {
		name  string
		apply func(g *group) bool
	}{
		{"intercept", func(g *group) bool { g.levels[0].segs[0].I++; return true }},
		{"span", func(g *group) bool { g.levels[0].segs[0].L++; return true }},
		{"key", func(g *group) bool { g.levels[0].keys[0]++; return true }},
		{"segment cache", func(g *group) bool { g.levels[0].segs[0].p0++; return true }},
		{"tune", func(g *group) bool { g.tune.reads++; return true }},
		{"exact bit", func(g *group) bool { g.tune.exact.set(200); return true }},
		{"crb owner", func(g *group) bool {
			if len(g.crb.entries) == 0 {
				return false
			}
			g.crb.setOwner(g.crb.entries[0].start(), ownerNone)
			return true
		}},
		{"crb entry", func(g *group) bool {
			if len(g.crb.entries) == 0 {
				return false
			}
			g.crb.entries[0].lpas = g.crb.entries[0].lpas[:len(g.crb.entries[0].lpas)-1]
			return true
		}},
	}
	for _, journaled := range []bool{false, true} {
		for _, alt := range alterations {
			name := alt.name
			if journaled {
				name += "/journal"
			}
			t.Run(name, func(t *testing.T) {
				tab := buildMixedTable(t, 4)
				p := NewPager(tab, 4096)
				if journaled {
					p.EnableJournal()
				}
				p.SetBudget(1)
				p.Enforce()
				if err := p.Check(); err != nil {
					t.Fatalf("before altering: %v", err)
				}
				altered := false
				for gid := addr.GroupID(0); gid < 8 && !altered; gid++ {
					if e := p.gmd[gid]; e != nil && e.parked != nil && len(e.parked.levels) > 0 {
						altered = alt.apply(e.parked)
					}
				}
				if !altered {
					t.Fatal("no parked group to alter")
				}
				if err := p.Check(); err == nil {
					t.Fatal("Check accepted an altered parked copy")
				}
			})
		}
	}
}
