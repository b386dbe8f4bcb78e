package ssd

import (
	"testing"

	"leaftl/internal/addr"
	"leaftl/internal/leaftl"
)

// BenchmarkDeviceWrite measures the host write path (buffer insert plus
// amortized flush, learning and GC).
func BenchmarkDeviceWrite(b *testing.B) {
	cfg := testConfig()
	d, err := New(cfg, leaftl.New(0, cfg.Flash.PageSize))
	if err != nil {
		b.Fatal(err)
	}
	rng := seededRand(b, 1)
	logical := d.LogicalPages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Write(addr.LPA(rng.Intn(logical-8)), 4); err != nil {
			b.Fatal(err)
		}
	}
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
