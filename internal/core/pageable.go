package core

import (
	"bytes"
	"fmt"

	"leaftl/internal/addr"
)

// Group-granular residency operations: the learned table doubles as a
// pageable container whose unit of transfer is one 256-LPA segment group.
// MarshalGroup/InstallGroup speak the snapshot's per-group record format
// (see persist.go), so an evicted group's bytes are exactly the
// translation-page payload §3.8 stores in flash translation blocks, and
// detachGroup/attachGroup (which InstallGroup decodes into) keep every
// incremental statistic in step so SizeBytes always reports only what
// is DRAM-resident.

// HasGroup reports whether the group is resident in the table.
func (t *Table) HasGroup(id addr.GroupID) bool {
	return t.lookupGroup(id) != nil
}

// GroupFootprint returns the DRAM bytes a resident group accounts for
// (encoded segments plus flat CRB footprint — the same quantities
// SizeBytes sums). It returns 0 for non-resident groups.
func (t *Table) GroupFootprint(id addr.GroupID) int {
	g := t.lookupGroup(id)
	if g == nil {
		return 0
	}
	return g.footprint()
}

// ResidentGroups returns the IDs of every resident group in ascending
// order.
func (t *Table) ResidentGroups() []addr.GroupID {
	out := make([]addr.GroupID, 0, t.nGroups)
	t.eachGroup(func(id addr.GroupID, _ *group) {
		out = append(out, id)
	})
	return out
}

// MarshalGroup serializes one resident group into its translation-page
// record. The group stays resident; callers pair this with detachGroup
// to evict.
func (t *Table) MarshalGroup(id addr.GroupID) ([]byte, error) {
	g := t.lookupGroup(id)
	if g == nil {
		return nil, fmt.Errorf("core: group %d is not resident", id)
	}
	buf := make([]byte, 0, 16+t.GroupFootprint(id))
	return appendGroupRecord(buf, id, g)
}

// InstallGroup decodes a translation-page record (a MarshalGroup image)
// and makes the group resident again. It fails if the record is
// malformed, carries trailing bytes, or the group is already resident
// with state (losing the resident copy silently would corrupt the
// mapping).
func (t *Table) InstallGroup(data []byte) (addr.GroupID, error) {
	r := reader{buf: data}
	gid, g, err := readGroupRecord(&r)
	if err != nil {
		return 0, err
	}
	if r.off != len(data) {
		return 0, fmt.Errorf("core: %d trailing bytes in group record", len(data)-r.off)
	}
	if err := t.attachGroup(gid, g); err != nil {
		return 0, err
	}
	return gid, nil
}

// attachGroup makes a decoded group resident under id: InstallGroup's
// decoded record, or the parked copy the pager kept when it evicted the
// group. The table takes ownership of g. Adopting it mirrors the
// incremental bookkeeping of the mutation path, so no recomputeStats
// sweep is needed.
func (t *Table) attachGroup(id addr.GroupID, g *group) error {
	if int(g.tune.gamma) > t.gamma {
		return fmt.Errorf("core: group %d tuned gamma %d exceeds the table bound %d",
			id, g.tune.gamma, t.gamma)
	}
	cur := t.lookupGroup(id)
	if cur != nil && (len(cur.levels) > 0 || len(cur.crb.entries) > 0) {
		return fmt.Errorf("core: group %d is already resident", id)
	}
	// An empty resident group is already counted at zero levels; g takes
	// its slot and moves the count to its own level total.
	if cur == nil {
		t.growGroups(id)
		t.nGroups++
		t.levelFreq[0]++
	}
	t.groups[id] = g
	t.noteLevels(g, 0)
	n, accurate := g.segmentCounts()
	t.nSegments += n
	t.nAccurate += accurate
	t.crbBytes += g.crb.sizeBytes()
	return nil
}

// detachGroup removes a resident group from the table and returns it,
// still decoded (nil when the group is not resident). Every incremental
// statistic is updated as if its segments and CRB entries were deleted;
// the caller owns the returned state and keeps an image (MarshalGroup)
// if the group must survive.
func (t *Table) detachGroup(id addr.GroupID) *group {
	g := t.lookupGroup(id)
	if g == nil {
		return nil
	}
	n, accurate := g.segmentCounts()
	t.nSegments -= n
	t.nAccurate -= accurate
	t.crbBytes -= g.crb.sizeBytes()
	t.totalLevels -= len(g.levels)
	t.levelFreq[len(g.levels)]--
	t.nGroups--
	t.groups[id] = nil
	return g
}

// segmentCounts returns how many segments the group holds and how many
// of them are accurate.
func (g *group) segmentCounts() (n, accurate int) {
	for li := range g.levels {
		segs := g.levels[li].segs
		n += len(segs)
		for i := range segs {
			if !segs[i].K.Flag() {
				accurate++
			}
		}
	}
	return n, accurate
}

// footprint is the DRAM bytes a group accounts for: encoded segments
// plus the flat CRB footprint (the quantities SizeBytes sums).
func (g *group) footprint() int {
	return g.segmentCount()*SegmentBytes + g.crb.sizeBytes()
}

// tighten repacks g into exactly sized storage for parking off the
// table: one segment array and one key array for the whole group, each
// level a full slice of it (cap == len, so a later insert reallocates
// that level alone), and no CRB free list. A group whose levels already
// have cap == len, as readGroupRecord decodes them, is left alone.
func (g *group) tighten() {
	g.crb.free = nil
	spare := cap(g.levels) != len(g.levels)
	n := 0
	for i := range g.levels {
		l := &g.levels[i]
		spare = spare || cap(l.segs) != len(l.segs) || cap(l.keys) != len(l.keys)
		n += len(l.segs)
	}
	if !spare {
		return
	}
	segs := make([]Segment, 0, n)
	keys := make([]uint8, 0, n)
	levels := make([]level, len(g.levels))
	for i := range g.levels {
		a := len(segs)
		segs = append(segs, g.levels[i].segs...)
		keys = append(keys, g.levels[i].keys...)
		levels[i] = level{keys: keys[a:len(keys):len(keys)], segs: segs[a:len(segs):len(segs)]}
	}
	g.levels = levels
}

// sameGroup reports the first difference between two decoded groups —
// tune block, levels, keys, segments with their decoded cache, CRB
// entries, CRB size and owner index — or nil when a lookup cannot tell
// them apart.
func sameGroup(a, b *group) error {
	if a.tune != b.tune {
		return fmt.Errorf("tune block differs")
	}
	if len(a.levels) != len(b.levels) {
		return fmt.Errorf("%d levels, want %d", len(a.levels), len(b.levels))
	}
	for li := range a.levels {
		la, lb := &a.levels[li], &b.levels[li]
		if len(la.segs) != len(lb.segs) || len(la.keys) != len(la.segs) {
			return fmt.Errorf("level %d has %d segments and %d keys, want %d", li, len(la.segs), len(la.keys), len(lb.segs))
		}
		for i := range la.segs {
			if la.segs[i] != lb.segs[i] || la.keys[i] != lb.keys[i] {
				return fmt.Errorf("level %d segment %d differs: %v", li, i, la.segs[i])
			}
		}
	}
	if len(a.crb.entries) != len(b.crb.entries) || a.crb.bytes != b.crb.bytes {
		return fmt.Errorf("CRB holds %d entries in %dB, want %d in %dB",
			len(a.crb.entries), a.crb.bytes, len(b.crb.entries), b.crb.bytes)
	}
	for i := range a.crb.entries {
		if !bytes.Equal(a.crb.entries[i].lpas, b.crb.entries[i].lpas) {
			return fmt.Errorf("CRB entry %d differs", i)
		}
	}
	for o := 0; o < addr.GroupSize; o++ {
		sa, oka := a.crb.lookup(uint8(o))
		sb, okb := b.crb.lookup(uint8(o))
		if sa != sb || oka != okb {
			return fmt.Errorf("CRB owner of offset %d differs", o)
		}
	}
	return nil
}
