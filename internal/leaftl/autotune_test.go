package leaftl

import (
	"fmt"
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

// TestAutotuneProperty is the adaptive-γ correctness property: across
// random feedback-driven workloads, with and without a DRAM budget,
// every translation stays within the *global* error bound (exact
// answers exactly), the GMD and budget invariants hold after every
// Maintain, and no group's effective γ ever exceeds the global bound.
func TestAutotuneProperty(t *testing.T) {
	const gamma = 8
	for trial := 0; trial < 3; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(41 + trial)))
			s := New(gamma, 4096, WithAutoTune(0.02), WithCompactEvery(512))

			logical := 24 * 256
			truth := make(map[addr.LPA]addr.PPA)
			var ppa addr.PPA
			var writes uint64

			commit := func(lpas []addr.LPA) {
				pairs := make([]addr.Mapping, 0, len(lpas))
				seen := map[addr.LPA]bool{}
				for _, l := range lpas {
					if !seen[l] {
						seen[l] = true
						pairs = append(pairs, addr.Mapping{LPA: l, PPA: 0})
					}
				}
				sortMappings(pairs)
				for i := range pairs {
					pairs[i].PPA = ppa + addr.PPA(i)
					truth[pairs[i].LPA] = pairs[i].PPA
				}
				ppa += addr.PPA(len(pairs))
				writes += uint64(len(pairs))
				s.Commit(pairs)
			}

			read := func(lpa addr.LPA) {
				want, mapped := truth[lpa]
				tr, ok := s.Translate(lpa)
				if ok != mapped {
					t.Fatalf("Translate(%d) ok=%v, mapped=%v", lpa, ok, mapped)
				}
				if !ok {
					return
				}
				if !tr.Approx && tr.PPA != want {
					t.Fatalf("exact answer %d for LPA %d, want %d", tr.PPA, lpa, want)
				}
				d := int64(tr.PPA) - int64(want)
				if d < -gamma || d > gamma {
					t.Fatalf("LPA %d predicted %d, want %d (outside ±%d)", lpa, tr.PPA, want, gamma)
				}
				// The device's feedback, modeled: hint-resolved when the
				// armed hint aims the first read at the true page.
				hintRes := tr.PPA != want && tr.Hint != 0 &&
					addr.PPA(int64(tr.PPA)+int64(tr.Hint)) == want
				s.NoteRead(lpa, tr.PPA, want, tr.Approx, hintRes)
			}

			maintain := func() {
				s.Maintain(writes)
				if err := s.CheckMapping(); err != nil {
					t.Fatal(err)
				}
				if mg := s.MaxGroupGamma(); mg > gamma {
					t.Fatalf("per-group gamma %d exceeds global %d", mg, gamma)
				}
			}

			budgeted := false
			for round := 0; round < 60; round++ {
				// Irregular write bursts create approximate segments.
				lpas := make([]addr.LPA, 0, 64)
				base := rng.Intn(logical - 512)
				l := addr.LPA(base)
				for len(lpas) < 64 {
					l += addr.LPA(1 + rng.Intn(3))
					lpas = append(lpas, l)
				}
				commit(lpas)
				// Skewed reads hammer a hot range so misses repeat.
				hot := addr.LPA(rng.Intn(logical / 2))
				for i := 0; i < 120; i++ {
					off := addr.LPA(rng.Intn(256))
					if rng.Float64() < 0.3 {
						off = addr.LPA(rng.Intn(logical))
					}
					read((hot + off) % addr.LPA(logical))
				}
				if round%7 == 3 {
					maintain()
				}
				if !budgeted && round == 20 {
					// Clamp mid-run: evictions and demand loads now
					// interleave with feedback and repairs.
					s.SetBudget(s.MemoryBytes()/2 + 1)
					budgeted = true
				}
				if budgeted {
					if err := s.CheckMapping(); err != nil {
						t.Fatalf("after round %d: %v", round, err)
					}
				}
			}
			maintain()
		})
	}
}

// sortMappings sorts a batch by LPA (the scheme contract).
func sortMappings(pairs []addr.Mapping) {
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].LPA < pairs[j-1].LPA; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
}

// TestAutotuneGammaSurvivesEviction pins the budgeted γ round trip at
// the scheme level: γs tuned by Maintain survive page-out and demand
// reload bit-identically.
func TestAutotuneGammaSurvivesEviction(t *testing.T) {
	s := New(8, 512, WithAutoTune(0.02), WithCompactEvery(1))
	var ppa addr.PPA
	var writes uint64
	commit := func(group int, step int) []addr.Mapping {
		pairs := make([]addr.Mapping, 0, 48)
		l := addr.LPA(group * 256)
		for len(pairs) < 48 {
			l += addr.LPA(1 + (len(pairs)+step)%3)
			pairs = append(pairs, addr.Mapping{LPA: l, PPA: ppa})
			ppa++
		}
		writes += uint64(len(pairs))
		s.Commit(pairs)
		return pairs
	}
	var all []addr.Mapping
	for g := 0; g < 8; g++ {
		all = append(all, commit(g, g)...)
	}
	// Miss-heavy feedback on half the groups, then retune.
	for _, m := range all[:len(all)/2] {
		s.NoteRead(m.LPA, m.PPA, m.PPA+3, true, false)
		s.NoteRead(m.LPA, m.PPA, m.PPA+3, true, false)
	}
	s.Maintain(writes)
	want := map[addr.GroupID]int{}
	for _, gt := range s.Table().GroupTunes() {
		want[gt.Group] = gt.Gamma
	}
	demoted := 0
	for _, g := range want {
		if g < 8 {
			demoted++
		}
	}
	if demoted == 0 {
		t.Fatal("controller demoted nothing; test is vacuous")
	}

	// Harsh budget: most groups page out.
	s.SetBudget(s.MemoryBytes()/4 + 1)
	if err := s.CheckMapping(); err != nil {
		t.Fatal(err)
	}
	// Touch every group to fault it back in and compare γ.
	for _, m := range all {
		if _, ok := s.Translate(m.LPA); !ok {
			t.Fatalf("mapping for %d lost under budget", m.LPA)
		}
	}
	for _, gt := range s.Table().GroupTunes() {
		if w, ok := want[gt.Group]; ok && gt.Gamma != w {
			t.Fatalf("group %d gamma %d after page-out cycle, want %d", gt.Group, gt.Gamma, w)
		}
	}
}
