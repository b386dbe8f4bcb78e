package experiments

import (
	"testing"

	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// TestCoreSweep runs the worker-count sweep at micro scale and checks
// the properties the bench-level gate relies on: every worker count
// serves the whole trace through real queue pairs and finishes with the
// same state digest.
func TestCoreSweep(t *testing.T) {
	const seed = 5
	s := NewSuite(MicroScale(), seed)
	runs, table, err := s.CoreSweep(CoreSweepSpec{Workers: []int{1, 2, 4}})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Logf("seed %d:\n%s", seed, table)
	if len(runs) != 3 {
		t.Fatalf("seed %d: %d runs, want 3", seed, len(runs))
	}
	for _, r := range runs {
		if r.Result.Requests != s.Scale.Requests {
			t.Errorf("seed %d w=%d: served %d requests, want %d", seed, r.Workers, r.Result.Requests, s.Scale.Requests)
		}
		if r.MQ.Completed != r.MQ.Submitted || r.MQ.Submitted != uint64(s.Scale.Requests) {
			t.Errorf("seed %d w=%d: submitted %d / completed %d, want %d each",
				seed, r.Workers, r.MQ.Submitted, r.MQ.Completed, s.Scale.Requests)
		}
		if r.Digest != runs[0].Digest {
			t.Errorf("seed %d w=%d: state digest %016x diverges from w=%d's %016x",
				seed, r.Workers, r.Digest, runs[0].Workers, runs[0].Digest)
		}
		if r.Result.IOPS() <= 0 {
			t.Errorf("seed %d w=%d: non-positive IOPS", seed, r.Workers)
		}
	}
}

// TestCoreSweepUnknownWorkload rejects bad workload names instead of
// panicking deep in the generator.
func TestCoreSweepUnknownWorkload(t *testing.T) {
	s := NewSuite(MicroScale(), 1)
	if _, _, err := s.CoreSweep(CoreSweepSpec{Workload: "no-such-workload"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestOpenLoopCompareWorkers drives the three-scheme open-loop
// comparison through real worker queue pairs (OpenLoopSpec.Workers) and
// checks every scheme still serves the full trace.
func TestOpenLoopCompareWorkers(t *testing.T) {
	const seed = 9
	s := NewSuite(MicroScale(), seed)
	gen := workload.TimedCatalog()["zipf-hot"]
	reqs := gen.Generate(s.simConfig("sim").LogicalPages(), 2_000, seed)
	runs, table, err := s.OpenLoopCompare(reqs, OpenLoopSpec{Workers: 2, Speedup: 4})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	t.Logf("seed %d:\n%s", seed, table)
	if len(runs) != 3 {
		t.Fatalf("seed %d: %d runs, want 3", seed, len(runs))
	}
	for _, r := range runs {
		if r.Result.Requests != len(reqs) {
			t.Errorf("seed %d %s: served %d requests, want %d", seed, r.Scheme, r.Result.Requests, len(reqs))
		}
	}
	var _ *trace.OpenLoopResult = runs[0].Result
}
