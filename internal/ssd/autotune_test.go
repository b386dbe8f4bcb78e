package ssd

import (
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/core"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
)

// churnAutotune drives a device into a mispredicting steady state:
// irregular writes create approximate segments, then a read-heavy mixed
// phase generates misses for the feedback loop.
func churnAutotune(t *testing.T, d *Device, seed int64, ops int) {
	t.Helper()
	logical := d.LogicalPages()
	rng := seededRand(t, seed)
	// Fill the first half so reads hit mapped pages.
	for lpa := 0; lpa+8 <= logical/2; lpa += 8 {
		if _, err := d.Write(addr.LPA(lpa), 8); err != nil {
			t.Fatal(err)
		}
	}
	for op := 0; op < ops; op++ {
		if rng.Float64() < 0.35 {
			// Irregular scattered writes (learning-hostile).
			for i := 0; i < 8; i++ {
				if _, err := d.Write(addr.LPA(rng.Intn(logical/2)), 1); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		base := rng.Intn(logical / 4)
		if _, err := d.Read(addr.LPA(base), 1+rng.Intn(4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestAutotuneDeviceEndToEnd runs the full feedback loop on a real
// device — translation hints, speculative reads, repairs, retunes —
// and checks the misprediction resolution split, the per-group γ
// invariant, and device integrity throughout.
func TestAutotuneDeviceEndToEnd(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(8, cfg.Flash.PageSize,
		leaftl.WithAutoTune(0.02), leaftl.WithCompactEvery(400)))
	churnAutotune(t, d, 7, 4000)

	st := d.Stats()
	if st.ApproxReads == 0 {
		t.Fatal("no approximate reads; the workload is not exercising the learned path")
	}
	if st.Mispredictions == 0 {
		t.Skip("workload produced no mispredictions at this seed")
	}
	if st.MissHintResolved+st.MissFallbacks != st.Mispredictions {
		t.Fatalf("resolution split %d+%d != mispredictions %d",
			st.MissHintResolved, st.MissFallbacks, st.Mispredictions)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sch := d.Scheme().(*leaftl.Scheme)
	if mg := sch.MaxGroupGamma(); mg > 8 {
		t.Fatalf("per-group gamma %d exceeds global 8", mg)
	}
	demoted := 0
	for _, gt := range sch.Table().GroupTunes() {
		if gt.Gamma < 8 {
			demoted++
		}
	}
	if demoted == 0 {
		t.Error("controller demoted no group despite mispredictions")
	}
	// Every mapped page still reads back correctly.
	for lpa := 0; lpa < d.LogicalPages()/2; lpa += 11 {
		if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
			t.Fatalf("read %d: %v", lpa, err)
		}
	}
}

// TestAutotuneRepairStopsRepeatMisses: once a costly miss is repaired,
// re-reading the same page translates exactly — a second identical read
// pass over the device adds no new costly mispredictions from pages
// already read (the LearnedFTL double-read elimination, end to end).
func TestAutotuneRepairStopsRepeatMisses(t *testing.T) {
	cfg := testConfig()
	// Starve the data cache so re-reads exercise translation, not DRAM:
	// DRAM barely exceeds the write buffer.
	cfg.DRAMBytes = cfg.BufferBytes() + 64<<10
	d := newTestDevice(t, cfg, leaftl.New(8, cfg.Flash.PageSize,
		leaftl.WithAutoTune(0.02), leaftl.WithCompactEvery(200)))
	churnAutotune(t, d, 11, 3000)
	if d.Stats().Mispredictions == 0 {
		t.Skip("no mispredictions at this seed")
	}

	// Pass 1: read a fixed span; costly misses get repaired on the way.
	span := d.LogicalPages() / 4
	pass := func() (costly uint64) {
		before := d.Stats().MissFallbacks
		for lpa := 0; lpa < span; lpa++ {
			if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
				t.Fatal(err)
			}
		}
		return d.Stats().MissFallbacks - before
	}
	first := pass()
	second := pass()
	if second != 0 {
		t.Fatalf("second identical read pass still paid %d double reads (first pass: %d)", second, first)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAutotuneGammaSurvivesRecovery pins the acceptance criterion on
// the full device: per-group γs tuned before a crash come back
// bit-identically for every group the GMD restores.
func TestAutotuneGammaSurvivesRecovery(t *testing.T) {
	cfg := testConfig()
	mk := func() *leaftl.Scheme {
		return leaftl.New(8, cfg.Flash.PageSize,
			leaftl.WithAutoTune(0.02), leaftl.WithCompactEvery(300))
	}
	d := newTestDevice(t, cfg, mk())
	churnAutotune(t, d, 17, 4000)
	d.SetMappingBudget(d.Scheme().FullSizeBytes() / 3)
	// More traffic under the budget so groups cycle through flash.
	churnMore := seededRand(t, 18)
	for op := 0; op < 1500; op++ {
		if op%3 == 0 {
			if _, err := d.Write(addr.LPA(churnMore.Intn(d.LogicalPages()/2)), 1); err != nil {
				t.Fatal(err)
			}
		} else if _, err := d.Read(addr.LPA(churnMore.Intn(d.LogicalPages()/4)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	old := d.Scheme().(*leaftl.Scheme)
	persisted := old.PersistedGroups()
	if len(persisted) == 0 {
		t.Fatal("nothing persisted before the crash")
	}
	// The pre-crash γ of every persisted group, resident or evicted:
	// decode each image into a scratch table (a crash survivor would).
	want := map[addr.GroupID]int{}
	for gid, img := range persisted {
		scratch := core.NewTable(8)
		got, err := scratch.InstallGroup(img)
		if err != nil || got != gid {
			t.Fatalf("persisted image of group %d does not decode: %v", gid, err)
		}
		want[gid] = scratch.GroupGamma(gid)
	}

	rep, err := d.Recover(mk())
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroupsRestored == 0 {
		t.Fatalf("no groups restored: %+v", rep)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Fault every restored group in and compare its γ (and hint state)
	// against the pre-crash value: the translation-page image carried it.
	fresh := d.Scheme().(*leaftl.Scheme)
	for lpa := 0; lpa < d.LogicalPages()/2; lpa += 3 {
		if _, err := d.Read(addr.LPA(lpa), 1); err != nil {
			t.Fatalf("post-recovery read %d: %v", lpa, err)
		}
	}
	checked := 0
	for _, gt := range fresh.Table().GroupTunes() {
		if _, ok := persisted[gt.Group]; !ok {
			continue // OOB-rebuilt group: relearned at the global bound
		}
		if w, ok := want[gt.Group]; ok {
			// Post-recovery reads advance counters, but γ itself must be
			// exactly what the image carried.
			if gt.Gamma != w {
				t.Fatalf("group %d recovered with gamma %d, want %d", gt.Group, gt.Gamma, w)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no restored group's gamma was checked; test is vacuous")
	}
}

var _ ftl.AdaptiveGamma = (*leaftl.Scheme)(nil)
