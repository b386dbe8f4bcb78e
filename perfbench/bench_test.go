package main

import (
	"testing"
)

// TestTracingIsTransparent replays each workload once untraced and once
// through the timing proxy and requires the same simulated outcome: the
// proxy must forward every optional scheme interface the device probes,
// or the traced device would take a different path. Streams are
// shortened to keep the test quick; the code paths are the benchmark's.
func TestTracingIsTransparent(t *testing.T) {
	logical := deviceConfig().LogicalPages()
	for _, name := range workloadNames() {
		s := workloads()[name]
		s.warmup, s.requests = 40_000, 20_000
		t.Run(name, func(t *testing.T) {
			in := generate(s, logical, 7)
			plain := runRep(s, in, false)
			traced := runRep(s, in, true)
			for _, r := range []*repResult{plain, traced} {
				if r.err != nil {
					t.Fatalf("traced=%v: %v", r.traced, r.err)
				}
			}
			if plain.fp != traced.fp {
				t.Fatalf("fingerprints differ:\nuntraced %+v\ntraced   %+v", plain.fp, traced.fp)
			}
			if plain.simKIOPS != traced.simKIOPS || plain.mapFull != traced.mapFull {
				t.Fatalf("simulated results differ: kIOPS %v/%v, map bytes %d/%d",
					plain.simKIOPS, traced.simKIOPS, plain.mapFull, traced.mapFull)
			}
			p := traced.proxy
			if p.translate.calls == 0 || p.commit.calls == 0 || p.maintain.calls == 0 || p.noteRead.calls == 0 {
				t.Fatalf("proxy missed scheme calls: %+v", *p)
			}
			if (p.commitGC.calls > 0) != (traced.fp.Stats.GCRuns > 0) {
				t.Fatalf("CommitGC calls %d with %d GC runs", p.commitGC.calls, traced.fp.Stats.GCRuns)
			}
			if s.pages != (p.pagein.calls > 0) {
				t.Fatalf("pagein calls %d, workload pages=%v", p.pagein.calls, s.pages)
			}
			if traced.host.read.calls+traced.host.write.calls != uint64(len(in.meas)) {
				t.Fatalf("device calls %d+%d, want %d", traced.host.read.calls, traced.host.write.calls, len(in.meas))
			}
		})
	}
}
