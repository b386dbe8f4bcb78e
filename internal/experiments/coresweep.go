package experiments

import (
	"fmt"

	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// CoreSweepSpec parameterizes the worker-per-core scaling sweep. Zero
// values select the defaults: workers 1/2/4/8 over zipf-hot at 4x
// recorded speed (enough offered load that a single worker saturates,
// so added cores translate into throughput).
type CoreSweepSpec struct {
	// Workers are the queue-pair counts to sweep.
	Workers []int
	// Workload names a generator from workload.TimedCatalog.
	Workload string
	// Gamma is LeaFTL's error bound.
	Gamma int
	// Speedup divides recorded inter-arrival times.
	Speedup float64
	// QueueDepth and Batch pass through to ssd.MQConfig (0 = defaults).
	QueueDepth int
	Batch      int
}

func (s CoreSweepSpec) withDefaults() CoreSweepSpec {
	if len(s.Workers) == 0 {
		s.Workers = []int{1, 2, 4, 8}
	}
	if s.Workload == "" {
		s.Workload = "zipf-hot"
	}
	if s.Speedup <= 0 {
		s.Speedup = 4
	}
	return s
}

// CoreSweepRun is one worker count's outcome. Digest is the device's
// post-run StateDigest: every run in a sweep replays the same trace in
// the same submission order, so digests must be identical across worker
// counts — the sweep carries its own determinism proof alongside the
// throughput curve.
type CoreSweepRun struct {
	Workers int
	Result  *trace.OpenLoopResult
	Stats   ssd.Stats
	MQ      ssd.MQStats
	Digest  uint64
}

// CoreSweep replays one timed workload open-loop through the real
// multi-queue front end at each worker count, on identical warmed
// devices. Requests are timed on per-worker logical clocks, so the
// virtual makespan shrinks — and kIOPS grows — as workers absorb arrival
// bursts in parallel, while the submission-order ticket keeps the final
// device state bit-identical across the whole sweep.
func (s *Suite) CoreSweep(spec CoreSweepSpec) ([]CoreSweepRun, Table, error) {
	spec = spec.withDefaults()
	gen, ok := workload.TimedCatalog()[spec.Workload]
	if !ok {
		return nil, Table{}, fmt.Errorf("coresweep: unknown timed workload %q", spec.Workload)
	}
	reqs := gen.Generate(s.simConfig("sim").LogicalPages(), s.Scale.Requests, s.Seed)

	var runs []CoreSweepRun
	for _, workers := range spec.Workers {
		if workers < 1 {
			return nil, Table{}, fmt.Errorf("coresweep: %d workers", workers)
		}
		cfg := s.simConfig("sim")
		sch := s.newScheme("LeaFTL", spec.Gamma, cfg)
		dev, err := ssd.New(cfg, sch)
		if err != nil {
			return nil, Table{}, fmt.Errorf("coresweep w=%d: %w", workers, err)
		}
		if err := warmFootprint(dev, reqs); err != nil {
			return nil, Table{}, fmt.Errorf("coresweep w=%d: warmup: %w", workers, err)
		}
		dev.ResetMetrics()
		mq := ssd.NewMultiQueue(dev, ssd.MQConfig{
			Queues: workers, QueueDepth: spec.QueueDepth, Batch: spec.Batch,
		})
		res, err := trace.ReplayOpenLoop(mq, reqs, trace.OpenLoopConfig{Speedup: spec.Speedup})
		if err != nil {
			return nil, Table{}, fmt.Errorf("coresweep w=%d: %w", workers, err)
		}
		if err := dev.Flush(); err != nil {
			return nil, Table{}, fmt.Errorf("coresweep w=%d: flush: %w", workers, err)
		}
		if err := dev.CheckInvariants(); err != nil {
			return nil, Table{}, fmt.Errorf("coresweep w=%d: %w", workers, err)
		}
		runs = append(runs, CoreSweepRun{
			Workers: workers, Result: res, Stats: dev.Stats(),
			MQ: mq.MQStats(), Digest: dev.StateDigest(),
		})
	}

	t := Table{
		ID: "coresweep",
		Title: fmt.Sprintf("multi-queue core sweep: %s, %d requests, %.2gx speed, gamma=%d",
			spec.Workload, len(reqs), spec.Speedup, spec.Gamma),
		Header: []string{"workers", "kIOPS", "p50", "p99", "p999", "wait p99", "epochs", "max batch", "state digest"},
		Notes:  "identical trace and submission order per row; equal digests = bit-identical final device state",
	}
	for _, r := range runs {
		sum := r.Result.Latency.Summary()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Workers),
			fmt.Sprintf("%.1f", r.Result.IOPS()/1e3),
			us(sum.P50), us(sum.P99), us(sum.P999),
			us(r.Result.QueueWait.Summary().P99),
			fmt.Sprintf("%d", r.MQ.Epochs),
			fmt.Sprintf("%d", r.MQ.MaxBatch),
			fmt.Sprintf("%016x", r.Digest),
		})
	}
	return runs, t, nil
}
