package leaftl

import (
	"fmt"
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

// TestBudgetPropertyRandomWorkloads is the budget-enforcement property
// test: across random workloads and random budgets, MemoryBytes() ≤
// budget must hold after every single operation, the GMD bookkeeping
// must stay consistent, and the budgeted scheme must translate
// bit-identically to an unlimited reference.
func TestBudgetPropertyRandomWorkloads(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("plain/trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial*10 + 5)))
			gamma := rng.Intn(5)
			ref := New(gamma, 4096)
			bud := New(gamma, 4096)

			logical := 48 * 256
			var ppa addr.PPA
			commit := func(lpas []addr.LPA) {
				pairs := make([]addr.Mapping, len(lpas))
				for i, l := range lpas {
					pairs[i] = addr.Mapping{LPA: l, PPA: ppa + addr.PPA(i)}
				}
				ppa += addr.PPA(len(lpas))
				ref.Commit(pairs)
				bud.Commit(pairs)
			}
			// Warm sequentially, then apply a harsh random budget.
			for b := 0; b < 48; b++ {
				lpas := make([]addr.LPA, 256)
				for i := range lpas {
					lpas[i] = addr.LPA(b*256 + i)
				}
				commit(lpas)
			}
			budget := 1 + rng.Intn(ref.MemoryBytes())
			bud.SetBudget(budget)

			check := func(op int) {
				if m := bud.MemoryBytes(); m > budget {
					t.Fatalf("op %d: MemoryBytes %d > budget %d", op, m, budget)
				}
				if err := bud.CheckMapping(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
			hostWrites := uint64(0)
			for op := 0; op < 6000; op++ {
				switch r := rng.Intn(100); {
				case r < 40:
					start := rng.Intn(logical - 32)
					n := 1 + rng.Intn(32)
					lpas := make([]addr.LPA, 0, n)
					for i := 0; i < n; i++ {
						lpas = append(lpas, addr.LPA(start+i))
					}
					commit(lpas)
					hostWrites += uint64(n)
				case r < 95:
					l := addr.LPA(rng.Intn(logical))
					a, aok := ref.Translate(l)
					b, bok := bud.Translate(l)
					if aok != bok || a.PPA != b.PPA || a.Approx != b.Approx {
						t.Fatalf("op %d: Translate(%d) diverges: %v/%v vs %v/%v",
							op, l, b.PPA, bok, a.PPA, aok)
					}
				default:
					// Periodic maintenance at a random cadence.
					ref.Maintain(hostWrites)
					bud.Maintain(hostWrites)
				}
				check(op)
			}
			// Every budgeted run under MemoryBytes must have produced
			// real paging traffic to be a meaningful property test.
			if bud.PagingStats().Faults == 0 && budget < ref.MemoryBytes() {
				t.Fatalf("binding budget %d (< %d) produced no faults", budget, ref.MemoryBytes())
			}
			// Full final sweep.
			for l := 0; l < logical; l++ {
				a, aok := ref.Translate(addr.LPA(l))
				b, bok := bud.Translate(addr.LPA(l))
				if aok != bok || a.PPA != b.PPA {
					t.Fatalf("final Translate(%d) diverges: %v/%v vs %v/%v", l, b.PPA, bok, a.PPA, aok)
				}
			}
			if bud.FullSizeBytes() < bud.MemoryBytes() {
				t.Fatalf("FullSizeBytes %d < MemoryBytes %d", bud.FullSizeBytes(), bud.MemoryBytes())
			}
		})
	}
}

// TestPagedMaintainChargesDirtyGroupsOnly pins the pressured Maintain
// contract: once the budget has bound, the first tick persists every
// dirty resident group, an immediately repeated tick writes nothing,
// and a tick after touching one group rewrites only that group's
// translation page. A never-binding budget keeps the pre-paging
// whole-table persistence instead.
func TestPagedMaintainChargesDirtyGroupsOnly(t *testing.T) {
	unbound := New(0, 4096, WithCompactEvery(1))
	unbound.SetBudget(1 << 30)
	unbound.Commit(seq(0, 0, 256))
	legacy := unbound.Maintain(10)
	if legacy.MetaWrites == 0 {
		t.Fatal("unbound budget: maintenance did not persist the table")
	}
	if again := unbound.Maintain(20); again.MetaWrites != legacy.MetaWrites {
		t.Fatalf("unbound budget: persistence charge changed %d -> %d (whole-table model)",
			legacy.MetaWrites, again.MetaWrites)
	}
	if unbound.TranslationPages() != 0 {
		t.Fatal("unbound budget must not materialize group images")
	}

	s := New(0, 4096, WithCompactEvery(1))
	for b := 0; b < 8; b++ {
		s.Commit(seq(addr.LPA(b*256), addr.PPA(b*256), 256))
	}
	s.SetBudget(s.MemoryBytes() / 2) // binds: evicts immediately, paging on
	first := s.Maintain(10)
	if first.MetaWrites < 2 {
		t.Fatalf("first pressured tick persisted %d pages; want every dirty resident group", first.MetaWrites)
	}
	if again := s.Maintain(20); again.MetaWrites != 0 {
		t.Fatalf("idle maintenance tick rewrote %d pages", again.MetaWrites)
	}
	s.Commit(seq(3*256, 90000, 4))
	after := s.Maintain(30)
	if after.MetaWrites == 0 || after.MetaWrites >= first.MetaWrites {
		t.Fatalf("dirty-group persistence wrote %d pages (first tick wrote %d)",
			after.MetaWrites, first.MetaWrites)
	}
	if s.TranslationPages() == 0 {
		t.Fatal("no translation pages after persistence")
	}
}

// TestPagedSnapshotRestore pins that snapshots taken under a binding
// budget capture paged-out groups, and that restoring re-enforces the
// budget.
func TestPagedSnapshotRestore(t *testing.T) {
	s := New(4, 4096)
	for b := 0; b < 8; b++ {
		s.Commit(seq(addr.LPA(b*256), addr.PPA(b*256), 256))
	}
	s.Commit(seq(100, 70000, 16))
	full := s.FullSizeBytes()
	s.SetBudget(full / 4)
	s.Commit(seq(200, 80000, 1)) // trigger enforcement
	if s.MemoryBytes() > full/4 {
		t.Fatalf("budget not enforced: %d > %d", s.MemoryBytes(), full/4)
	}

	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(0, 4096)
	if err := fresh.Restore(img); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 8*256; l++ {
		a, aok := s.Translate(addr.LPA(l))
		b, bok := fresh.Translate(addr.LPA(l))
		if aok != bok || a.PPA != b.PPA {
			t.Fatalf("Translate(%d): %v/%v vs %v/%v after snapshot round trip", l, b.PPA, bok, a.PPA, aok)
		}
	}

	budgeted := New(0, 4096)
	budgeted.SetBudget(full / 8)
	if err := budgeted.Restore(img); err != nil {
		t.Fatal(err)
	}
	if budgeted.MemoryBytes() > full/8 {
		t.Fatalf("restore ignored the budget: %d > %d", budgeted.MemoryBytes(), full/8)
	}
	if err := budgeted.CheckMapping(); err != nil {
		t.Fatal(err)
	}
}

// TestPageInAllocs gates the host cost of a demand page-in. A journaled
// scheme whose budget holds two of its eight groups translates
// round-robin across them, so every Translate pages one group in and
// evicts another (clean, after the warm-up round). Page-in reattaches the
// decoded group parked at eviction, so what remains is the flash charge
// itself: one slice of journal page ids per load. Decoding the image
// instead costs 12 allocations per page-in on this workload.
func TestPageInAllocs(t *testing.T) {
	const groups = 8
	s := New(4, 256, WithJournal())
	var ppa addr.PPA
	for g := 0; g < groups; g++ {
		// A sequential run plus an irregular overwrite, so every group
		// carries two levels, approximate segments and CRB entries.
		base := addr.LPA(g * 256)
		var pairs []addr.Mapping
		for i := 0; i < 256; i++ {
			pairs = append(pairs, addr.Mapping{LPA: base + addr.LPA(i), PPA: ppa})
			ppa++
		}
		s.Commit(pairs)
		pairs = pairs[:0]
		for i := 3; i < 200; i += 7 {
			pairs = append(pairs, addr.Mapping{LPA: base + addr.LPA(i), PPA: ppa})
			ppa += addr.PPA(1 + i%3)
		}
		s.Commit(pairs)
	}
	s.SetBudget(2 * s.MemoryBytes() / groups)

	next := 0
	translate := func() {
		lpa := addr.LPA(next%groups*256 + 17)
		next++
		if _, ok := s.Translate(lpa); !ok {
			t.Fatalf("Translate(%d) unmapped", lpa)
		}
	}
	for i := 0; i < 2*groups; i++ {
		translate()
	}
	if err := s.CheckMapping(); err != nil {
		t.Fatal(err)
	}
	faults, calls := s.PagingStats().Faults, next
	avg := testing.AllocsPerRun(400, translate)
	if got := s.PagingStats().Faults - faults; got != uint64(next-calls) {
		t.Fatalf("%d page-ins over %d translations; every one should fault", got, next-calls)
	}
	if err := s.CheckMapping(); err != nil {
		t.Fatal(err)
	}
	if avg > 1 {
		t.Errorf("a journaled page-in through Translate allocates %.2f objects, want ≤ 1", avg)
	}
}
