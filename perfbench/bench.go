package main

import (
	"fmt"
	"hash/fnv"
	"maps"
	"runtime"
	"slices"
	"syscall"
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/core"
	"leaftl/internal/flash"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
	"leaftl/internal/metrics"
	"leaftl/internal/ssd"
	"leaftl/internal/trace"
	"leaftl/internal/workload"
)

// Device and scheme shared by every workload: the quick-scale simulator
// device (16 channels × 48 blocks × 256 pages of 4 KB, 20% OP, one die,
// default GC watermarks, no fault injection) under LeaFTL with autotune,
// the exactness bitmap and the journal, γ ceiling 16.
const (
	gammaCeiling = 16
	// compactEvery matches the quick-scale experiment suite.
	compactEvery = 5000
	fillPages    = 64
)

func deviceConfig() ssd.Config {
	cfg := ssd.SimulatorConfig()
	cfg.Flash.BlocksPerChan = 48
	cfg.Flash.OOBSize = 256 // room for the 2γ+1 reverse-mapping window at γ=16
	cfg.BufferPages = 512
	cfg.DRAMBytes = int64(cfg.BufferPages)*int64(cfg.Flash.PageSize) + 96<<10
	return cfg
}

func newScheme(cfg ssd.Config) *leaftl.Scheme {
	return leaftl.New(gammaCeiling, cfg.Flash.PageSize,
		leaftl.WithCompactEvery(compactEvery),
		leaftl.WithAutoTune(0),
		leaftl.WithExactBitmap(),
		leaftl.WithJournal())
}

// spec is one benchmark workload.
type spec struct {
	name string
	gen  workload.Generator
	// offered is the open-loop arrival rate, requests per simulated
	// second.
	offered float64
	// warmup requests precondition the device after the full fill;
	// requests are then measured.
	warmup, requests int
	// budgetDiv, when positive, caps the mapping at 1/budgetDiv of the
	// learned table's size at the end of preconditioning; 0 leaves the
	// mapping unconstrained.
	budgetDiv int
	// pages says whether the pager must page groups in during the
	// measured phase (checked both ways); needGC that GC must run.
	pages, needGC bool
}

func zipfHot(iops float64) workload.Generator {
	return workload.ZipfianProfile{
		Name: "zipf-hot", S: 1.2, ReadFrac: 0.7, MinPages: 1, MaxPages: 8,
		FootprintFrac: 0.4, Arrivals: workload.ArrivalModel{IOPS: iops, BurstFactor: 8},
	}
}

func mixedRW(iops float64) workload.Generator {
	return workload.MixedProfile{
		Name: "mixed-rw", ScanReqs: 48, UpdateReqs: 96, ScanPages: 32, UpdateMaxPages: 4,
		HotFrac: 0.8, HotSpace: 0.1, FootprintFrac: 0.5,
		Arrivals: workload.ArrivalModel{IOPS: iops, BurstFactor: 4},
	}
}

// workloads returns the benchmark's workloads by name. zipf-paged and
// zipf-resident replay the same request stream; only the mapping budget
// differs.
func workloads() map[string]spec {
	const zipfIOPS, mixedIOPS = 5_000, 1_000
	return map[string]spec{
		"zipf-paged": {
			name: "zipf-paged", gen: zipfHot(zipfIOPS), offered: zipfIOPS,
			warmup: 200_000, requests: 100_000, budgetDiv: 4, pages: true,
		},
		"zipf-resident": {
			name: "zipf-resident", gen: zipfHot(zipfIOPS), offered: zipfIOPS,
			warmup: 200_000, requests: 400_000,
		},
		"mixed-gc": {
			name: "mixed-gc", gen: mixedRW(mixedIOPS), offered: mixedIOPS,
			warmup: 100_000, requests: 100_000, needGC: true,
		},
	}
}

// inputs is one seed's generated request streams.
type inputs struct {
	warm, meas []trace.Request
	footprint  int
	generate   time.Duration
}

func generate(s spec, logicalPages int, seed int64) inputs {
	start := time.Now()
	reqs := s.gen.Generate(logicalPages, s.warmup+s.requests, seed)
	in := inputs{warm: reqs[:s.warmup], meas: reqs[s.warmup:]}
	// The measured slice starts its own trace-relative clock.
	base := in.meas[0].Arrival
	for i := range in.meas {
		in.meas[i].Arrival -= base
		if end := int(in.meas[i].LPA) + in.meas[i].Pages; end > in.footprint {
			in.footprint = end
		}
	}
	in.generate = time.Since(start)
	return in
}

// fingerprint is the simulated behaviour of one measured replay. A
// change that only touches host cost must reproduce it exactly for the
// same seed.
type fingerprint struct {
	Digest      uint64          `json:"state_digest"`
	LatencyHash uint64          `json:"sim_latency_hash"`
	Latency     metrics.Summary `json:"sim_latency_summary"`
	Stats       ssd.Stats       `json:"ssd_stats"`
}

// repResult is one set-up plus measured replay.
type repResult struct {
	stream   int
	traced   bool
	setup    time.Duration
	setupCPU time.Duration
	wall     time.Duration
	cpu      time.Duration
	budget   int

	attempted, failed int
	err               error

	hostP50, hostP99 float64 // µs
	deviceNs         int64
	allocs, bytes    uint64
	heapBytes        int64
	gcCycles         uint32
	gcPauseNs        uint64

	fp                       fingerprint
	simMean, simP50, simP999 float64 // µs
	waitP99                  float64 // µs
	simKIOPS, sustained, waf float64
	mapFull                  int
	flash                    flash.Stats
	pager                    core.PagerStats
	journal                  ftl.JournalStats
	levels                   float64
	segments                 int

	footprint int
	generate  time.Duration

	host  *hostDevice
	proxy *tracedScheme
	flush span
	probe probes
}

// probes are per-layer timings taken on the device's final state after
// the replay has been fingerprinted.
type probes struct {
	lookupNsPerCall, compactMs, fitNsPerPair float64
}

// runRep sets up a fresh device, replays the measured stream and checks
// the outcome.
func runRep(s spec, in inputs, traced bool) *repResult {
	r := &repResult{traced: traced, footprint: in.footprint, generate: in.generate}
	cfg := deviceConfig()

	h := newHostDevice(len(in.meas))
	runtime.GC()
	heapBase := liveHeap()
	start, startCPU := time.Now(), cpuTime()
	sch := newScheme(cfg)
	var fs ftl.Scheme = sch
	if traced {
		r.proxy = newTracedScheme(sch)
		fs = r.proxy
	}
	dev, err := ssd.New(cfg, fs)
	if err == nil {
		err = precondition(dev, s, in)
	}
	if err != nil {
		r.err = fmt.Errorf("set-up: %w", err)
		return r
	}
	r.setup = time.Since(start)
	r.setupCPU = cpuTime() - startCPU
	r.budget = dev.MappingBudget()
	dev.ResetMetrics()
	if traced {
		r.proxy.reset()
	}
	flashBase := dev.FlashStats()
	pagerBase := sch.PagingStats()
	journalBase := sch.JournalStats()
	_, levels := sch.LookupLevels()
	levelsBase := maps.Clone(levels)

	h.dev, h.p = dev, r.proxy
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	res, err := trace.ReplayOpenLoop(h, in.meas, trace.OpenLoopConfig{Queues: 1})
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r.host = h
	r.attempted = len(h.callNs)
	r.failed = h.errors
	if err != nil {
		r.err = err
		return r
	}
	r.allocs = ms1.Mallocs - ms0.Mallocs
	r.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcCycles = ms1.NumGC - ms0.NumGC
	r.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	for _, ns := range h.callNs {
		r.deviceNs += ns
	}
	sorted := slices.Clone(h.callNs)
	slices.Sort(sorted)
	r.hostP50 = float64(pct(sorted, 0.50)) / 1e3
	r.hostP99 = float64(pct(sorted, 0.99)) / 1e3

	if err := r.simulated(in.meas, res); err != nil {
		r.err = err
		return r
	}
	r.waf = dev.WAF()

	// Correctness: drain the buffer, audit the device, fingerprint it.
	fstart := time.Now()
	err = dev.Flush()
	r.flush.add(time.Since(fstart))
	if err == nil {
		err = dev.CheckInvariants()
	}
	if err != nil {
		r.err = err
		return r
	}
	r.fp.Digest = dev.StateDigest()
	r.fp.Stats = dev.Stats()
	r.mapFull = sch.FullSizeBytes()
	r.flash = subFlash(dev.FlashStats(), flashBase)
	r.pager = subPager(sch.PagingStats(), pagerBase)
	r.journal = subJournal(sch.JournalStats(), journalBase)
	_, levels = sch.LookupLevels()
	r.levels = meanDelta(levels, levelsBase)
	r.segments = sch.Table().Stats().Segments

	runtime.GC()
	r.heapBytes = liveHeap() - heapBase
	runtime.KeepAlive(dev)
	if traced {
		r.probe = takeProbes(sch, r.proxy, in.footprint)
		r.proxy.batches = nil
	}
	h.callNs, h.service = nil, nil
	return r
}

// precondition fills the whole logical space, replays the warm-up slice
// and, for a budgeted workload, caps the mapping.
func precondition(dev *ssd.Device, s spec, in inputs) error {
	dev.SetMappingBudget(0)
	n := dev.LogicalPages()
	for lpa := 0; lpa < n; lpa += fillPages {
		if _, err := dev.Write(addr.LPA(lpa), min(fillPages, n-lpa)); err != nil {
			return err
		}
	}
	if err := dev.Flush(); err != nil {
		return err
	}
	if _, err := trace.ReplayOpenLoop(dev, in.warm, trace.OpenLoopConfig{Queues: 1}); err != nil {
		return err
	}
	if s.budgetDiv > 0 {
		dev.SetMappingBudget(dev.Scheme().FullSizeBytes() / s.budgetDiv)
	}
	return nil
}

// simulated rebuilds the exact per-request simulated latencies (one host
// queue: a request starts at its due time or when its predecessor
// completes) and cross-checks them against the replayer's own result.
func (r *repResult) simulated(meas []trace.Request, res *trace.OpenLoopResult) error {
	lat := make([]int64, len(meas))
	wait := make([]int64, len(meas))
	hash := fnv.New64a()
	var buf [8]byte
	var free time.Duration
	var sum float64
	for i, req := range meas {
		start := max(req.Arrival, free)
		free = start + r.host.service[i]
		lat[i] = int64(free - req.Arrival)
		wait[i] = int64(start - req.Arrival)
		sum += float64(lat[i])
		for b := range buf {
			buf[b] = byte(lat[i] >> (8 * b))
		}
		hash.Write(buf[:])
	}
	if free != res.Elapsed || uint64(len(meas)) != res.Latency.Count() {
		return fmt.Errorf("rebuilt latencies disagree with the replay: makespan %v vs %v", free, res.Elapsed)
	}
	r.fp.LatencyHash = hash.Sum64()
	r.fp.Latency = res.Latency.Summary()
	slices.Sort(lat)
	slices.Sort(wait)
	r.simMean = sum / float64(len(lat)) / 1e3
	r.simP50 = float64(pct(lat, 0.50)) / 1e3
	r.simP999 = float64(pct(lat, 0.999)) / 1e3
	r.waitP99 = float64(pct(wait, 0.99)) / 1e3
	r.simKIOPS = res.IOPS() / 1e3
	// The window's own arrival rate: bursty arrivals make it differ from
	// the nominal offered rate, and only against it does a ratio below 1
	// mean a backlog.
	r.sustained = float64(meas[len(meas)-1].Arrival) / float64(res.Elapsed)
	return nil
}

func takeProbes(sch *leaftl.Scheme, p *tracedScheme, footprint int) probes {
	var pr probes
	t := sch.Table()
	const passes = 5
	start := time.Now()
	var sink addr.PPA
	for k := 0; k < passes; k++ {
		for lpa := 0; lpa < footprint; lpa++ {
			ppa, _, _ := t.Lookup(addr.LPA(lpa))
			sink ^= ppa
		}
	}
	pr.lookupNsPerCall = float64(time.Since(start)) / float64(passes*footprint)
	runtime.KeepAlive(sink)

	var pairs int
	start = time.Now()
	for _, b := range p.batches {
		core.Learn(b, gammaCeiling)
		pairs += len(b)
	}
	if pairs > 0 {
		pr.fitNsPerPair = float64(time.Since(start)) / float64(pairs)
	}

	start = time.Now()
	t.Compact()
	pr.compactMs = float64(time.Since(start)) / 1e6
	return pr
}

func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// pct returns the nearest-rank q-quantile of sorted.
func pct(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// meanDelta is the mean level count of the lookups recorded in cur but
// not in base.
func meanDelta(cur, base map[int]uint64) float64 {
	var n, sum uint64
	for k, v := range cur {
		d := v - base[k]
		n += d
		sum += uint64(k) * d
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

func subFlash(a, b flash.Stats) flash.Stats {
	return flash.Stats{
		PageReads:   a.PageReads - b.PageReads,
		PageWrites:  a.PageWrites - b.PageWrites,
		BlockErases: a.BlockErases - b.BlockErases,
	}
}

func subPager(a, b core.PagerStats) core.PagerStats {
	return core.PagerStats{
		Faults:          a.Faults - b.Faults,
		Evictions:       a.Evictions - b.Evictions,
		DirtyWritebacks: a.DirtyWritebacks - b.DirtyWritebacks,
	}
}

func subJournal(a, b ftl.JournalStats) ftl.JournalStats {
	a.Appends -= b.Appends
	a.Bases -= b.Bases
	a.Folds -= b.Folds
	a.GCRuns -= b.GCRuns
	a.Replays -= b.Replays
	return a
}

// cpuTime is the process's user plus system CPU time, garbage collector
// workers included; 0 if the kernel will not say.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
