package core

import (
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

// mixedBatch builds one 256-mapping batch mixing sequential, strided and
// irregular runs — the shape a sorted buffer flush produces.
func mixedBatch(rng *rand.Rand, base addr.LPA, ppa addr.PPA) []addr.Mapping {
	pairs := make([]addr.Mapping, 0, 256)
	lpa := base
	for len(pairs) < 256 {
		lpa += addr.LPA(1 + rng.Intn(3))
		pairs = append(pairs, addr.Mapping{LPA: lpa, PPA: ppa})
		ppa++
	}
	return pairs
}

// BenchmarkLearn256 measures learning one 256-mapping batch — the
// paper's Table 3 "Learning (256 LPAs)" row (9.8–10.8µs on an ARM A72).
func BenchmarkLearn256(b *testing.B) {
	for _, gamma := range []int{0, 1, 4} {
		b.Run(gammaName(gamma), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			batch := mixedBatch(rng, 0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Learn(batch, gamma)
			}
		})
	}
}

// BenchmarkLookup measures one LPA translation — Table 3's "Lookup (per
// LPA)" row (40.2–67.5ns on an ARM A72).
func BenchmarkLookup(b *testing.B) {
	for _, gamma := range []int{0, 1, 4} {
		b.Run(gammaName(gamma), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			tb := NewTable(gamma)
			ppa := addr.PPA(0)
			for g := 0; g < 64; g++ {
				batch := mixedBatch(rng, addr.LPA(g*512), ppa)
				tb.Update(batch)
				ppa += 256
			}
			lpas := make([]addr.LPA, 4096)
			for i := range lpas {
				lpas[i] = addr.LPA(rng.Intn(64 * 512))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Lookup(lpas[i%len(lpas)])
			}
		})
	}
}

// BenchmarkUpdate measures inserting a learned batch into a table with
// existing overlapping levels (the steady-state write path).
func BenchmarkUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tb := NewTable(0)
	ppa := addr.PPA(0)
	batches := make([][]addr.Mapping, 256)
	for i := range batches {
		batches[i] = mixedBatch(rng, addr.LPA(rng.Intn(8192)), ppa)
		ppa += 256
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Update(batches[i%len(batches)])
	}
}

// BenchmarkCompact measures full-table compaction (paper §3.7 reports
// 4.1ms per 1M-write interval on their table sizes).
func BenchmarkCompact(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := NewTable(0)
		ppa := addr.PPA(0)
		for j := 0; j < 128; j++ {
			tb.Update(mixedBatch(rng, addr.LPA(rng.Intn(4096)), ppa))
			ppa += 256
		}
		b.StartTimer()
		tb.Compact()
	}
}

// BenchmarkEncode measures segment serialization.
func BenchmarkEncode(b *testing.B) {
	ls := Learn(mappings(0, 1, 1000, 256), 0)
	seg := ls[0].Seg
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := seg.Encode()
		_ = DecodeSegment(raw, seg.Group())
	}
}

// relearnStack builds groups shaped like the GC-heavy workload's: each
// group is written by 32-page scans and then overwritten by buffer
// flushes of scattered 1–4-page hot writes, which stack deep levels,
// while GC relocation batches — a sorted sample of the groups' LPAs at
// fresh consecutive PPAs, as GC rewrites a victim block's surviving
// pages — are relearned in between and keep merging the upper levels. It
// returns the table's snapshot and one more relocation batch.
func relearnStack(gamma, groups int) (snap []byte, batch []addr.Mapping) {
	rng := rand.New(rand.NewSource(5))
	tb := NewTable(gamma)
	tb.EnableExactBitmap()
	space := groups * addr.GroupSize
	ppa := addr.PPA(1)
	relocation := func() []addr.Mapping {
		var lpas []addr.LPA
		for l := 0; l < space; l++ {
			if rng.Intn(16) == 0 {
				lpas = append(lpas, addr.LPA(l))
			}
		}
		return assignPPAs(lpas, &ppa, 0)
	}
	for start := 0; start < space; start += 32 {
		lpas := make([]addr.LPA, 32)
		for i := range lpas {
			lpas[i] = addr.LPA(start + i)
		}
		tb.Update(assignPPAs(lpas, &ppa, 0))
	}
	for flush := 0; flush < 120; flush++ {
		var lpas []addr.LPA
		for w := 0; w < 16; w++ {
			start := rng.Intn(space - 4)
			for i := 0; i < 1+rng.Intn(4); i++ {
				lpas = append(lpas, addr.LPA(start+i))
			}
		}
		tb.Update(assignPPAs(lpas, &ppa, 0))
		if flush%4 == 3 {
			tb.Relearn(relocation())
		}
	}
	snap, err := tb.MarshalBinary()
	if err != nil {
		panic(err)
	}
	return snap, relocation()
}

// BenchmarkRelearn measures Table.Relearn of one GC relocation batch
// over deep level stacks: learning, insertion, the immediate compaction
// of every touched group and the bitmap refresh. The stack is restored
// from a snapshot outside the timer, so every iteration relearns the
// same state.
func BenchmarkRelearn(b *testing.B) {
	const gamma = 16 // the GC-heavy benchmark's γ ceiling
	snap, batch := relearnStack(gamma, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tb := NewTable(gamma)
		if err := tb.UnmarshalBinary(snap); err != nil {
			b.Fatal(err)
		}
		tb.EnableExactBitmap()
		b.StartTimer()
		tb.Relearn(batch)
	}
}
