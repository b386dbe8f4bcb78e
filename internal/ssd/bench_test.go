package ssd

import (
	"math/rand"
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/leaftl"
)

// BenchmarkDeviceWrite measures the host write path: random 4-page
// writes (buffer insert plus amortized flush, learning and GC
// relearning) on a preconditioned γ=0 LeaFTL device. Preconditioning
// runs outside the timer and leaves GC running, so no fill transient is
// timed. The budgeted case caps the mapping at a quarter of the
// preconditioned learned table, so flushes and GC relocations page
// translation groups in and out.
//
// The learned table itself still grows under this workload: compaction
// keeps trimmed-but-overlapping stale segments in extra levels, so the
// table gains about 38 bytes per write. Once it outgrows the mapping
// budget, page-ins dominate and the cost per write climbs with b.N —
// after ~50k writes unbudgeted, from the start when budgeted. Compare
// runs only at equal -benchtime Nx.
func BenchmarkDeviceWrite(b *testing.B) {
	for _, budgeted := range []bool{false, true} {
		name := "unbudgeted"
		if budgeted {
			name = "budgeted"
		}
		b.Run(name, func(b *testing.B) {
			d, rng := newWriteDevice(b)
			if budgeted {
				d.SetMappingBudget(d.Scheme().FullSizeBytes() / 4)
			}
			logical := d.LogicalPages()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Write(addr.LPA(rng.Intn(logical-8)), 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newWriteDevice returns a γ=0 LeaFTL device past its fill transient —
// its logical space filled sequentially, then overwritten twice over by
// random 4-page writes, so GC is already reclaiming blocks — and the RNG
// that drove it.
func newWriteDevice(tb testing.TB) (*Device, *rand.Rand) {
	cfg := testConfig()
	d, err := New(cfg, leaftl.New(0, cfg.Flash.PageSize))
	if err != nil {
		tb.Fatal(err)
	}
	logical := d.LogicalPages()
	for lpa := 0; lpa+64 <= logical; lpa += 64 {
		if _, err := d.Write(addr.LPA(lpa), 64); err != nil {
			tb.Fatal(err)
		}
	}
	rng := seededRand(tb, 1)
	for i := 0; i < logical/2; i++ {
		if _, err := d.Write(addr.LPA(rng.Intn(logical-8)), 4); err != nil {
			tb.Fatal(err)
		}
	}
	if d.Stats().GCRuns == 0 {
		tb.Fatal("preconditioning did not reach GC")
	}
	return d, rng
}

// newReadDevice returns a γ=0 LeaFTL device whose lower half of the
// logical space is written and flushed, so reads of it translate from a
// resident learned table.
func newReadDevice(tb testing.TB) *Device {
	cfg := testConfig()
	d, err := New(cfg, leaftl.New(0, cfg.Flash.PageSize))
	if err != nil {
		tb.Fatal(err)
	}
	logical := d.LogicalPages()
	for lpa := 0; lpa+64 <= logical/2; lpa += 64 {
		if _, err := d.Write(addr.LPA(lpa), 64); err != nil {
			tb.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		tb.Fatal(err)
	}
	return d
}

// BenchmarkDeviceRead measures the host read path (translation, flash
// model, cache maintenance).
func BenchmarkDeviceRead(b *testing.B) {
	d := newReadDevice(b)
	logical := d.LogicalPages()
	rng := seededRand(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Read(addr.LPA(rng.Intn(logical/2)), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeviceReadAllocs gates the host read path at ≤ 1 allocation per
// single-page Read on a flushed, resident device.
func TestDeviceReadAllocs(t *testing.T) {
	d := newReadDevice(t)
	logical := d.LogicalPages()
	rng := seededRand(t, 2)
	metaReads := d.Stats().MetaReads
	avg := testing.AllocsPerRun(2000, func() {
		if _, err := d.Read(addr.LPA(rng.Intn(logical/2)), 1); err != nil {
			t.Fatal(err)
		}
	})
	if got := d.Stats().MetaReads; got != metaReads {
		t.Fatalf("reads paged in %d translation pages; the mapping should be resident", got-metaReads)
	}
	if avg > 1 {
		t.Errorf("Device.Read allocates %.2f objects per call, want ≤ 1", avg)
	}
}
