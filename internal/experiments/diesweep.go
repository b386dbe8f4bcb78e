package experiments

import (
	"fmt"

	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// DieSweepSpec parameterizes the die-scaling sweep. Zero values select
// the defaults: 1/2/4 dies per channel at two planes per die, zipf-hot
// through 4 queue pairs at 4x recorded speed, with a second arm per
// geometry running under a 25% mapping budget to expose the map-op/
// data-op pipelining (Stats.MetaOverlap).
type DieSweepSpec struct {
	// Dies are the dies-per-channel counts to sweep.
	Dies []int
	// Planes is the planes-per-die fan-out, applied to every row
	// (including one die) so the whole curve runs under the same
	// die-aware timing model and measures die parallelism alone.
	Planes int
	// Workers is the multi-queue pair count of the open-loop replay.
	Workers int
	// Workload names a generator from workload.TimedCatalog.
	Workload string
	// Gamma is LeaFTL's error bound.
	Gamma int
	// Speedup divides recorded inter-arrival times.
	Speedup float64
	// MappingBudget is the budgeted arm's fraction of the full mapping
	// size (0 < f <= 1).
	MappingBudget float64
}

// WithDefaults resolves zero fields to the documented defaults (exported
// so callers can report the values a zero spec actually ran with).
func (s DieSweepSpec) WithDefaults() DieSweepSpec {
	if len(s.Dies) == 0 {
		s.Dies = []int{1, 2, 4}
	}
	if s.Planes <= 0 {
		s.Planes = 2
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.Workload == "" {
		s.Workload = "zipf-hot"
	}
	if s.Speedup <= 0 {
		s.Speedup = 4
	}
	if s.MappingBudget <= 0 || s.MappingBudget > 1 {
		s.MappingBudget = 0.25
	}
	return s
}

// DieSweepRun is one geometry's outcome: the unbudgeted open-loop replay
// (the throughput curve) and the budgeted arm (the meta-pipelining
// probe). Digests are not comparable across rows — each geometry lays
// pages out differently by design.
type DieSweepRun struct {
	Dies   int
	Planes int
	Result *trace.OpenLoopResult
	Stats  ssd.Stats
	MQ     ssd.MQStats
	Digest uint64

	// Budgeted arm: same geometry and trace under MappingBudget of the
	// full mapping size, where translation-page writes actually flow.
	BudgetBytes  int
	BudgetResult *trace.OpenLoopResult
	BudgetStats  ssd.Stats
}

// DieSweep replays one timed workload open-loop on identical warmed
// devices across channel × die × plane geometries. More dies per channel
// widen the program/erase service pool behind the same bus (flushes and
// GC stripe over per-die lanes; reads complete out of order across
// dies), so offered load that saturates one die per channel translates
// into throughput as dies are added. The budgeted arm demand-pages the
// mapping under a tight budget, where multi-die geometries additionally
// overlap translation-page writes with data traffic (Stats.MetaOverlap).
func (s *Suite) DieSweep(spec DieSweepSpec) ([]DieSweepRun, Table, error) {
	spec = spec.WithDefaults()
	gen, ok := workload.TimedCatalog()[spec.Workload]
	if !ok {
		return nil, Table{}, fmt.Errorf("diesweep: unknown timed workload %q", spec.Workload)
	}
	reqs := gen.Generate(s.simConfig("sim").LogicalPages(), s.Scale.Requests, s.Seed)

	var runs []DieSweepRun
	for _, dies := range spec.Dies {
		if dies < 1 {
			return nil, Table{}, fmt.Errorf("diesweep: %d dies", dies)
		}
		run := DieSweepRun{Dies: dies, Planes: spec.Planes}

		// Unbudgeted arm: the throughput curve, through the real
		// multi-queue front end.
		{
			cfg, err := s.dieConfig(dies, spec.Planes)
			if err != nil {
				return nil, Table{}, err
			}
			sch := s.newScheme("LeaFTL", spec.Gamma, cfg)
			dev, err := ssd.New(cfg, sch)
			if err != nil {
				return nil, Table{}, fmt.Errorf("diesweep d=%d: %w", dies, err)
			}
			if err := warmFootprint(dev, reqs); err != nil {
				return nil, Table{}, fmt.Errorf("diesweep d=%d: warmup: %w", dies, err)
			}
			dev.ResetMetrics()
			mq := ssd.NewMultiQueue(dev, ssd.MQConfig{Queues: spec.Workers})
			res, err := trace.ReplayOpenLoop(mq, reqs, trace.OpenLoopConfig{Speedup: spec.Speedup})
			if err != nil {
				return nil, Table{}, fmt.Errorf("diesweep d=%d: %w", dies, err)
			}
			if err := dev.Flush(); err != nil {
				return nil, Table{}, fmt.Errorf("diesweep d=%d: flush: %w", dies, err)
			}
			if err := dev.CheckInvariants(); err != nil {
				return nil, Table{}, fmt.Errorf("diesweep d=%d: %w", dies, err)
			}
			run.Result, run.Stats, run.MQ, run.Digest = res, dev.Stats(), mq.MQStats(), dev.StateDigest()
		}

		// Budgeted arm: demand-paged mapping at a fraction of full size.
		{
			cfg, err := s.dieConfig(dies, spec.Planes)
			if err != nil {
				return nil, Table{}, err
			}
			sch := s.newScheme("LeaFTL", spec.Gamma, cfg)
			dev, err := ssd.New(cfg, sch)
			if err != nil {
				return nil, Table{}, fmt.Errorf("diesweep d=%d budget: %w", dies, err)
			}
			if err := warmFootprint(dev, reqs); err != nil {
				return nil, Table{}, fmt.Errorf("diesweep d=%d budget: warmup: %w", dies, err)
			}
			bytes := int(spec.MappingBudget * float64(sch.FullSizeBytes()))
			if bytes < 1 {
				bytes = 1
			}
			dev.SetMappingBudget(bytes)
			dev.ResetMetrics()
			res, err := trace.ReplayOpenLoop(dev, reqs, trace.OpenLoopConfig{
				Queues: spec.Workers, Speedup: spec.Speedup,
			})
			if err != nil {
				return nil, Table{}, fmt.Errorf("diesweep d=%d budget: %w", dies, err)
			}
			if err := dev.Flush(); err != nil {
				return nil, Table{}, fmt.Errorf("diesweep d=%d budget: flush: %w", dies, err)
			}
			if err := dev.CheckInvariants(); err != nil {
				return nil, Table{}, fmt.Errorf("diesweep d=%d budget: %w", dies, err)
			}
			run.BudgetBytes, run.BudgetResult, run.BudgetStats = bytes, res, dev.Stats()
		}
		runs = append(runs, run)
	}

	t := Table{
		ID: "diesweep",
		Title: fmt.Sprintf("die sweep: %s, %d requests, %.2gx speed, %d workers, %d planes, gamma=%d, budget=%.0f%%",
			spec.Workload, len(reqs), spec.Speedup, spec.Workers, spec.Planes, spec.Gamma,
			100*spec.MappingBudget),
		Header: []string{"dies", "kIOPS", "p50", "p99", "p999", "budget kIOPS", "meta R/W", "meta overlap", "state digest"},
		Notes:  "same trace per row; digests differ by design (geometry changes page placement)",
	}
	for _, r := range runs {
		sum := r.Result.Latency.Summary()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.Dies),
			fmt.Sprintf("%.1f", r.Result.IOPS()/1e3),
			us(sum.P50), us(sum.P99), us(sum.P999),
			fmt.Sprintf("%.1f", r.BudgetResult.IOPS()/1e3),
			fmt.Sprintf("%d/%d", r.BudgetStats.MetaReads, r.BudgetStats.MetaWrites),
			us(r.BudgetStats.MetaOverlap),
			fmt.Sprintf("%016x", r.Digest),
		})
	}
	return runs, t, nil
}

// dieConfig builds the simulator config on a die × plane
// geometry, validating divisibility up front for a clear error.
func (s *Suite) dieConfig(dies, planes int) (ssd.Config, error) {
	cfg := s.simConfig("sim")
	cfg.Flash.DiesPerChan = dies
	cfg.Flash.PlanesPerDie = planes
	if dies > 1 && cfg.Flash.BlocksPerChan%dies != 0 {
		return cfg, fmt.Errorf("diesweep: %d blocks/chan not divisible by %d dies",
			cfg.Flash.BlocksPerChan, dies)
	}
	if planes > 1 && cfg.Flash.PagesPerBlock%planes != 0 {
		return cfg, fmt.Errorf("diesweep: %d pages/block not divisible by %d planes",
			cfg.Flash.PagesPerBlock, planes)
	}
	return cfg, nil
}
