package core

import (
	"bytes"
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

// fuzzSeeds returns valid snapshots and group records to seed the
// corpus: an empty table, a sequential table, and the mixed table the
// paging tests use (multi-level groups, approximate segments, CRBs).
func fuzzSeeds(t interface{ Helper() }) (snapshots [][]byte, groups [][]byte) {
	tab := NewTable(4)
	commit := func(lpas []addr.LPA, base addr.PPA) {
		pairs := make([]addr.Mapping, len(lpas))
		for i, l := range lpas {
			pairs[i] = addr.Mapping{LPA: l, PPA: base + addr.PPA(i)}
		}
		tab.Update(pairs)
	}
	empty, _ := NewTable(0).MarshalBinary()
	snapshots = append(snapshots, empty)

	seq := make([]addr.LPA, 256)
	for i := range seq {
		seq[i] = addr.LPA(i)
	}
	commit(seq, 100)
	commit([]addr.LPA{10, 13, 17, 20, 29}, 50000)
	commit([]addr.LPA{300, 302, 305, 309}, 51000)
	full, _ := tab.MarshalBinary()
	snapshots = append(snapshots, full)

	for _, gid := range tab.ResidentGroups() {
		img, _ := tab.MarshalGroup(gid)
		groups = append(groups, img)
	}

	// A bitmap-enabled table: the same commits re-verified through
	// refreshExactBits, so the v3 records carry set exact bits.
	bt := NewTable(4)
	bt.EnableExactBitmap()
	commitB := func(lpas []addr.LPA, base addr.PPA) {
		pairs := make([]addr.Mapping, len(lpas))
		for i, l := range lpas {
			pairs[i] = addr.Mapping{LPA: l, PPA: base + addr.PPA(i)}
		}
		bt.Update(pairs)
	}
	commitB(seq, 100)
	commitB([]addr.LPA{10, 13, 17, 20, 29}, 50000)
	commitB([]addr.LPA{300, 302, 305, 309}, 51000)
	bm, _ := bt.MarshalBinary()
	snapshots = append(snapshots, bm)
	for _, gid := range bt.ResidentGroups() {
		img, _ := bt.MarshalGroup(gid)
		groups = append(groups, img)
	}
	return snapshots, groups
}

// FuzzPersist fuzzes the two snapshot decoders — the full-table
// UnmarshalBinary and the per-group InstallGroup (the demand-paging
// translation-page decoder) — against panics, and asserts every accepted
// input round-trips to a canonical fixed point: re-marshaling what was
// decoded, decoding that, and marshaling again must reproduce the same
// bytes, with the incremental statistics agreeing with a from-scratch
// recomputation.
func FuzzPersist(f *testing.F) {
	snaps, groups := fuzzSeeds(f)
	for _, s := range snaps {
		f.Add(s)
	}
	for _, g := range groups {
		f.Add(g)
	}
	f.Add([]byte("LFTL\x03\x04\x00\x00\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Full-snapshot decoder.
		tab := NewTable(0)
		if err := tab.UnmarshalBinary(data); err == nil {
			canon, err := tab.MarshalBinary()
			if err != nil {
				t.Fatalf("accepted snapshot does not re-marshal: %v", err)
			}
			second := NewTable(0)
			if err := second.UnmarshalBinary(canon); err != nil {
				t.Fatalf("canonical snapshot rejected: %v", err)
			}
			again, err := second.MarshalBinary()
			if err != nil {
				t.Fatalf("canonical snapshot does not re-marshal: %v", err)
			}
			if !bytes.Equal(canon, again) {
				t.Fatal("canonical snapshot is not a marshaling fixed point")
			}
			incr := second.Stats()
			second.recomputeStats()
			if incr != second.Stats() {
				t.Fatalf("incremental stats diverge after decode: %+v vs %+v", incr, second.Stats())
			}
		}

		// Per-group translation-page decoder. The install target's γ is
		// the record's upper bound for tuned group γs, so fuzz against the
		// widest table.
		gt := NewTable(255)
		if gid, err := gt.InstallGroup(data); err == nil {
			img, err := gt.MarshalGroup(gid)
			if err != nil {
				t.Fatalf("accepted group record does not re-marshal: %v", err)
			}
			gt2 := NewTable(255)
			gid2, err := gt2.InstallGroup(img)
			if err != nil || gid2 != gid {
				t.Fatalf("canonical group record rejected: %v (gid %d vs %d)", err, gid2, gid)
			}
			again, err := gt2.MarshalGroup(gid2)
			if err != nil || !bytes.Equal(img, again) {
				t.Fatalf("canonical group record is not a marshaling fixed point: %v", err)
			}
			if gt.SizeBytes() != gt2.SizeBytes() || gt.Stats() != gt2.Stats() {
				t.Fatalf("group record stats diverge: %+v vs %+v", gt.Stats(), gt2.Stats())
			}
		}
	})
}

// FuzzPager drives two demand-paged tables — one on the mapping-delta
// journal, one on the full-image path — and an unbudgeted twin through
// the same sequence of writes, lookups, read feedback, compaction with
// persistence, and budget changes decoded from the input. Every lookup
// must equal the twin's, and both pagers' Check (which audits every
// parked copy against its image) must pass after every operation.
func FuzzPager(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 0, 10, 4, 1, 1, 2, 0, 10})
	f.Add([]byte{
		0x30, 1, 0, 0x85, 2, 7, 0x31, 3, 9, 0xa0, 4, 3, 4, 2, 1,
		2, 1, 5, 3, 2, 7, 0x1e, 0, 200, 4, 6, 0, 2, 3, 9, 0x2d, 5, 100,
		4, 1, 1, 2, 4, 3, 3, 4, 3, 4, 0, 0, 2, 5, 100,
	})
	long := make([]byte, 1200)
	rand.New(rand.NewSource(1)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			gamma  = 4
			groups = 6
			maxOps = 400
		)
		type arm struct {
			name string
			tab  *Table
			p    *Pager
		}
		newArm := func(name string, journaled bool) arm {
			tab := NewTable(gamma)
			p := NewPager(tab, 128)
			if journaled {
				p.EnableJournal()
				p.ConfigureJournal(64, 128)
			}
			return arm{name, tab, p}
		}
		arms := []arm{newArm("journal", true), newArm("image", false)}
		twin := NewTable(gamma)
		ppa := addr.PPA(1)

		lookup := func(op int, lpa addr.LPA) (addr.PPA, LookupResult, bool) {
			want, res, wok := twin.Lookup(lpa)
			for _, a := range arms {
				a.p.EnsureRead(addr.Group(lpa))
				got, _, ok := a.tab.Lookup(lpa)
				a.p.Enforce()
				if ok != wok || got != want {
					t.Fatalf("op %d, %s: Lookup(%d) = %d/%v, twin %d/%v", op, a.name, lpa, got, ok, want, wok)
				}
			}
			return want, res, wok
		}

		for op := 0; op < maxOps && 3*op+2 < len(data); op++ {
			code, x, y := data[3*op], data[3*op+1], data[3*op+2]
			gid := addr.GroupID(x % groups)
			base := addr.GroupBase(gid)
			switch code % 5 {
			case 0, 1:
				// A sorted run inside one group: length and PPA step from
				// the op code, start and LPA stride from the operands. PPA
				// steps above one make the run irregular, so γ>0 learns
				// approximate segments with CRB entries.
				n := 1 + int(code/5)%24
				stride := 1 + int(x/groups)%3
				step := addr.PPA(1 + int(code/120))
				var pairs []addr.Mapping
				for k := 0; k < n && int(y)+k*stride < addr.GroupSize; k++ {
					pairs = append(pairs, addr.Mapping{LPA: base + addr.LPA(int(y)+k*stride), PPA: ppa})
					ppa += step
				}
				twin.Update(pairs)
				for _, a := range arms {
					a.p.EnsureWrite(gid)
					a.tab.Update(pairs)
					a.p.Enforce()
				}
			case 2:
				lookup(op, base+addr.LPA(y))
			case 3:
				// Read feedback: a verified hit or a miss one page off.
				// It moves only the tune block and never dirties a group.
				lpa := base + addr.LPA(y)
				pred, res, ok := lookup(op, lpa)
				if !ok {
					break
				}
				actual := pred + addr.PPA(code/5%2)
				twin.NoteRead(lpa, pred, actual, res.Approx, false)
				for _, a := range arms {
					a.p.EnsureRead(gid)
					a.tab.NoteRead(lpa, pred, actual, res.Approx, false)
					a.p.Enforce()
				}
			case 4:
				if y%2 == 0 {
					// Budget change: 0 lifts the cap, small values force
					// every group in and out.
					for _, a := range arms {
						a.p.SetBudget(int(x) * 8)
						a.p.Enforce()
					}
					break
				}
				// Periodic maintenance: compact, persist dirty groups.
				twin.Compact()
				for _, a := range arms {
					for _, g := range a.tab.CompactChanged() {
						a.p.MarkDirty(g)
					}
					a.p.FlushDirty()
					a.p.Enforce()
				}
			}
			for _, a := range arms {
				if err := a.p.Check(); err != nil {
					t.Fatalf("op %d, %s: %v", op, a.name, err)
				}
			}
		}
		for gid := addr.GroupID(0); gid < groups; gid++ {
			for off := 0; off < addr.GroupSize; off++ {
				lookup(-1, addr.GroupBase(gid)+addr.LPA(off))
			}
		}
	})
}

// FuzzCompact drives the compaction differential of
// TestCompactMatchesPerSegmentReplay from fuzzed bytes: the first byte
// picks γ and the bitmap, then each byte pair picks an operation (scan,
// strided or irregular run, scattered hot writes, relocation relearn,
// whole-table compaction, page-out round trip) and seeds its shape. After
// every operation the production table must match the per-segment oracle
// group for group, with equal statistics.
func FuzzCompact(f *testing.F) {
	f.Add([]byte{0, 3, 1, 4, 2, 6, 3, 7, 0})
	f.Add([]byte{0x06, 0, 9, 3, 1, 3, 2, 4, 5, 5, 8, 8, 1, 6, 4, 3, 7, 7, 2})
	long := make([]byte, 1200)
	rand.New(rand.NewSource(2)).Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		gammas := []int{0, 2, 4, 16}
		c := newCompactTwin(gammas[data[0]&3], data[0]&4 != 0)
		rng := rand.New(rand.NewSource(0))
		const maxOps = 600
		for op := 0; op < maxOps && 2*op+2 < len(data); op++ {
			code, seed := data[2*op+1], data[2*op+2]
			kind := int(code) % 9
			rng.Seed(int64(code)<<8 | int64(seed))
			c.step(kind, rng)
			if err := c.check(); err != nil {
				t.Fatalf("op %d (kind %d): %v", op, kind, err)
			}
		}
	})
}
