// Command perfbench is the repository's benchmark: it drives the
// unmodified LeaFTL simulator end to end on one workload and prints host
// cost (wall time, allocations, heap) and simulated device metrics.
//
//	python3 perfbench/run.py --workload zipf-paged --seed 1 --seconds 20 --trace 0
//
// A run measures several request streams generated from --seed. Each
// repetition sets up a fresh, preconditioned device and replays one
// stream's measured slice open-loop on the simulated clock; on the host
// the replay is a closed loop of device calls. Repetitions cycle through
// the streams until each has been measured and the replays have taken
// --seconds of wall time. With --trace 1, each stream is replayed
// untraced and then traced (a timing proxy around the scheme), and the
// run reports per-layer metrics.
//
// The line before the last records the environment, the sizes and the
// simulated fingerprints; the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"leaftl/internal/ssd"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured wall time per run")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	s, ok := workloads()[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {%s}, --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	out := run(s, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out.record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(out.result); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// streams is how many independent request streams, each with its own
// seed derived from --seed, a run measures. Host cost and simulated
// behaviour vary from stream to stream far more than between repeated
// replays of one stream, so every metric is averaged over the streams.
const streams = 4

// runDeadline stops starting repetitions once a run has taken this long,
// keeping it inside its time limit on a slow host.
const runDeadline = 120 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	record map[string]any
	result result
}

func streamSeed(seed int64, stream int) int64 { return seed*streams + int64(stream) }

// run cycles through the streams, one set-up plus measured replay per
// repetition, until every stream has been measured (untraced, and with
// --trace 1 also traced) and the replays have taken budget of wall time.
func run(s spec, seed int64, budget time.Duration, traceMode bool) output {
	logical := deviceConfig().LogicalPages()
	perStream := 1
	if traceMode {
		perStream = 2 // untraced then traced
	}
	var (
		reps     []*repResult
		first    [streams]*repResult
		problems []string
		measured time.Duration
	)
	begin := time.Now()
	for i := 0; ; i++ {
		stream := (i / perStream) % streams
		traced := traceMode && i%2 == 1
		in := generate(s, logical, streamSeed(seed, stream))
		r := runRep(s, in, traced)
		r.stream = stream
		reps = append(reps, r)
		measured += r.wall
		if r.err != nil {
			problems = append(problems, fmt.Sprintf("stream %d rep %d: %v", stream, i, r.err))
			break
		}
		if p := selfCheck(s, r); p != "" {
			problems = append(problems, fmt.Sprintf("stream %d rep %d: %s", stream, i, p))
		}
		if first[stream] == nil {
			first[stream] = r
		} else if r.fp != first[stream].fp {
			problems = append(problems, fmt.Sprintf("stream %d rep %d (traced=%v): simulated fingerprint differs from the stream's first replay",
				stream, i, traced))
		}
		elapsed := time.Since(begin)
		done := i+1 >= streams*perStream
		if done && (measured >= budget || elapsed+elapsed/time.Duration(i+1) > runDeadline) {
			break
		}
	}

	res := result{Correct: len(problems) == 0, Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	if res.Correct {
		if traceMode {
			res.Metrics = perLayer(reps)
		} else {
			res.Metrics = endToEnd(reps)
		}
	}
	return output{record: runRecord(s, seed, first[:], reps, problems), result: res}
}

// selfCheck reports a workload that stopped loading the layer it was
// chosen for.
func selfCheck(s spec, r *repResult) string {
	faults := r.pager.Faults
	if r.proxy != nil {
		faults = r.proxy.pagein.calls
	}
	switch {
	case s.pages && faults == 0:
		return "no mapping page-ins in the measured phase"
	case !s.pages && faults != 0:
		return fmt.Sprintf("%d mapping page-ins on an unconstrained mapping", faults)
	case s.needGC && r.fp.Stats.GCRuns == 0:
		return "no garbage collection in the measured phase"
	}
	return ""
}

// aggregate takes, for each stream, the median of f over its untraced
// or traced repetitions, and returns the mean over the streams.
func aggregate(reps []*repResult, traced bool, f func(*repResult) float64) float64 {
	var per [streams][]float64
	for _, r := range reps {
		if r.traced == traced {
			per[r.stream] = append(per[r.stream], f(r))
		}
	}
	var sum float64
	var n int
	for _, v := range per {
		if len(v) == 0 {
			continue
		}
		sum += median(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func median(v []float64) float64 {
	slices.Sort(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// pooled is the median of f over every untraced or traced repetition,
// whatever its stream. Host-cost figures use it: the streams cost the
// host about the same, and the host's own slow spells are what a median
// over many repetitions has to ride out.
func pooled(reps []*repResult, traced bool, f func(*repResult) float64) float64 {
	var v []float64
	for _, r := range reps {
		if r.traced == traced {
			v = append(v, f(r))
		}
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

func endToEnd(reps []*repResult) map[string]metric {
	m := func(unit string, f func(*repResult) float64) metric {
		return metric{aggregate(reps, false, f), unit}
	}
	host := func(unit string, f func(*repResult) float64) metric {
		return metric{pooled(reps, false, f), unit}
	}
	n := func(r *repResult) float64 { return float64(r.attempted) }
	// Throughput and set-up time are taken in process CPU time, not wall
	// time. The replay is one goroutine, so on an idle host the two agree
	// within a few percent (the garbage collector's workers add CPU time
	// on the other core); on a shared host, wall time also counts the
	// spells in which other tenants hold the CPU, which last minutes and
	// moved wall-clock throughput by up to 45% between runs.
	return map[string]metric{
		"host_req_per_s":           host("1/s", func(r *repResult) float64 { return n(r) / r.cpu.Seconds() }),
		"host_req_p50_us":          host("us", func(r *repResult) float64 { return r.hostP50 }),
		"host_req_p99_us":          host("us", func(r *repResult) float64 { return r.hostP99 }),
		"host_allocs_per_req":      m("count", func(r *repResult) float64 { return float64(r.allocs) / n(r) }),
		"host_alloc_bytes_per_req": m("B", func(r *repResult) float64 { return float64(r.bytes) / n(r) }),
		"host_live_heap_mb":        m("MB", func(r *repResult) float64 { return float64(r.heapBytes) / (1 << 20) }),
		"setup_s":                  host("s", func(r *repResult) float64 { return r.setupCPU.Seconds() }),
		"sim_kiops":                m("kIOPS", func(r *repResult) float64 { return r.simKIOPS }),
		"sim_mean_us":              m("us", func(r *repResult) float64 { return r.simMean }),
		"sim_p999_us":              m("us", func(r *repResult) float64 { return r.simP999 }),
		"waf":                      m("ratio", func(r *repResult) float64 { return r.waf }),
		"map_full_bytes":           m("B", func(r *repResult) float64 { return float64(r.mapFull) }),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer reports each layer at its public boundary, from the traced
// repetitions; only the replay loop's own cost and the tracing overhead
// also use the untraced ones.
func perLayer(reps []*repResult) map[string]metric {
	m := func(unit string, f func(*repResult) float64) metric {
		return metric{aggregate(reps, true, f), unit}
	}
	stat := func(unit string, f func(ssd.Stats) float64) metric {
		return m(unit, func(r *repResult) float64 { return f(r.fp.Stats) })
	}
	count := func(f func(*repResult) uint64) metric {
		return m("count", func(r *repResult) float64 { return float64(f(r)) })
	}
	host := func(f func(*hostDevice) span) metric {
		return m("ns", func(r *repResult) float64 { return f(r.host).nsPerCall() })
	}
	scheme := func(name string, f func(*tracedScheme) span, out map[string]metric) {
		out["leaftl."+name+"_calls"] = count(func(r *repResult) uint64 { return f(r.proxy).calls })
		out["leaftl."+name+"_ns_per_call"] = m("ns", func(r *repResult) float64 { return f(r.proxy).nsPerCall() })
	}
	pageReads := func(st ssd.Stats) float64 { return float64(st.HostPagesRead) }
	wall := func(traced bool) float64 {
		return aggregate(reps, traced, func(r *repResult) float64 { return r.wall.Seconds() })
	}
	out := map[string]metric{
		"ssd.read_ns_per_call":       host(func(h *hostDevice) span { return h.read }),
		"ssd.write_ns_per_call":      host(func(h *hostDevice) span { return h.write }),
		"ssd.read_self_ns_per_call":  host(func(h *hostDevice) span { return h.readSelf }),
		"ssd.write_self_ns_per_call": host(func(h *hostDevice) span { return h.writeSelf }),
		"ssd.flush_ns_per_call":      m("ns", func(r *repResult) float64 { return r.flush.nsPerCall() }),
		"ssd.gc_calls":               count(func(r *repResult) uint64 { return r.host.gc.calls }),
		"ssd.gc_ns":                  m("ns", func(r *repResult) float64 { return float64(r.host.gc.ns) }),
		"ssd.cache_hit_ratio":        stat("ratio", ssd.Stats.CacheHitRatio),
		"ssd.double_reads_per_kread": stat("count", func(st ssd.Stats) float64 { return 1000 * ratio(float64(st.DoubleReads), pageReads(st)) }),
		"ssd.exact_bit_hit_ratio":    stat("ratio", ssd.Stats.ExactBitHitRatio),
		"ssd.oob_fallbacks":          stat("count", func(st ssd.Stats) float64 { return float64(st.OOBFallbacks) }),
		"ssd.gc_runs":                stat("count", func(st ssd.Stats) float64 { return float64(st.GCRuns) }),
		"ssd.gc_pages_moved":         stat("count", func(st ssd.Stats) float64 { return float64(st.GCPagesMoved) }),
		"ssd.gc_erases":              stat("count", func(st ssd.Stats) float64 { return float64(st.GCErases) }),
		"ssd.relearns":               stat("count", func(st ssd.Stats) float64 { return float64(st.Relearns) }),
		"ssd.meta_reads_per_op":      stat("ratio", ssd.Stats.MetaReadRatio),
		"ssd.meta_waf":               stat("ratio", ssd.Stats.MetaWAF),
		"ssd.gc_time_ms":             stat("ms", func(st ssd.Stats) float64 { return float64(st.GCTime) / 1e6 }),
		"ssd.gc_stall_ms":            stat("ms", func(st ssd.Stats) float64 { return float64(st.GCStall) / 1e6 }),

		"flash.page_reads":  count(func(r *repResult) uint64 { return r.flash.PageReads }),
		"flash.page_writes": count(func(r *repResult) uint64 { return r.flash.PageWrites }),
		"flash.erases":      count(func(r *repResult) uint64 { return r.flash.BlockErases }),
		"flash.reads_per_host_page_read": m("ratio", func(r *repResult) float64 {
			return ratio(float64(r.flash.PageReads), pageReads(r.fp.Stats))
		}),
		// Useful reads: host pages the flash served, over every flash
		// page read (double reads, translation pages and GC copy-out
		// included).
		"flash.useful_read_frac": m("ratio", func(r *repResult) float64 {
			st := r.fp.Stats
			return ratio(float64(st.HostPagesRead-st.BufferHits-st.CacheHits-st.UnmappedReads), float64(r.flash.PageReads))
		}),

		"core.segments":           m("count", func(r *repResult) float64 { return float64(r.segments) }),
		"core.levels_per_lookup":  m("count", func(r *repResult) float64 { return r.levels }),
		"core.pager_faults":       count(func(r *repResult) uint64 { return r.pager.Faults }),
		"core.pager_evictions":    count(func(r *repResult) uint64 { return r.pager.Evictions }),
		"core.pager_writebacks":   count(func(r *repResult) uint64 { return r.pager.DirtyWritebacks }),
		"core.journal_appends":    count(func(r *repResult) uint64 { return r.journal.Appends }),
		"core.journal_folds":      count(func(r *repResult) uint64 { return r.journal.Folds }),
		"core.journal_gc_runs":    count(func(r *repResult) uint64 { return r.journal.GCRuns }),
		"core.journal_replays":    count(func(r *repResult) uint64 { return r.journal.Replays }),
		"core.journal_max_chain":  m("count", func(r *repResult) float64 { return float64(r.journal.MaxChain) }),
		"core.lookup_ns_per_call": m("ns", func(r *repResult) float64 { return r.probe.lookupNsPerCall }),
		"core.compact_ms":         m("ms", func(r *repResult) float64 { return r.probe.compactMs }),
		"plr.fit_ns_per_pair":     m("ns", func(r *repResult) float64 { return r.probe.fitNsPerPair }),

		"trace.queue_wait_p99_us":     m("us", func(r *repResult) float64 { return r.waitP99 }),
		"trace.sim_p50_us":            m("us", func(r *repResult) float64 { return r.simP50 }),
		"trace.achieved_over_offered": m("ratio", func(r *repResult) float64 { return r.sustained }),
		"trace.driver_ns_per_req": {aggregate(reps, false, func(r *repResult) float64 {
			return float64(int64(r.wall)-r.deviceNs) / float64(r.attempted)
		}), "ns"},
		"workload.generate_s":       m("s", func(r *repResult) float64 { return r.generate.Seconds() }),
		"go.gc_cycles":              m("count", func(r *repResult) float64 { return float64(r.gcCycles) }),
		"go.gc_pause_ms":            m("ms", func(r *repResult) float64 { return float64(r.gcPauseNs) / 1e6 }),
		"bench.trace_overhead_frac": {wall(true)/wall(false) - 1, "ratio"},
	}
	scheme("translate", func(p *tracedScheme) span { return p.translate }, out)
	scheme("pagein", func(p *tracedScheme) span { return p.pagein }, out)
	scheme("commit", func(p *tracedScheme) span { return p.commit }, out)
	scheme("commitgc", func(p *tracedScheme) span { return p.commitGC }, out)
	scheme("maintain", func(p *tracedScheme) span { return p.maintain }, out)
	scheme("noteread", func(p *tracedScheme) span { return p.noteRead }, out)
	return out
}

// runRecord is the line printed before the result: what was run, on
// what, with which sizes, and per stream the simulated fingerprint a
// host-only change must reproduce for the same seed.
func runRecord(s spec, seed int64, first []*repResult, reps []*repResult, problems []string) map[string]any {
	var timings []map[string]any
	for _, r := range reps {
		timings = append(timings, map[string]any{
			"stream": r.stream, "traced": r.traced,
			"setup_s": r.setup.Seconds(), "setup_cpu_s": r.setupCPU.Seconds(),
			"replay_s": r.wall.Seconds(), "cpu_s": r.cpu.Seconds(),
		})
	}
	var sizes, fps []map[string]any
	for i, r := range first {
		if r == nil {
			continue
		}
		sizes = append(sizes, map[string]any{
			"seed":                   streamSeed(seed, i),
			"footprint_pages":        r.footprint,
			"mapping_budget_bytes":   r.budget,
			"sim_kiops_over_offered": r.sustained,
		})
		fps = append(fps, map[string]any{"seed": streamSeed(seed, i), "fingerprint": r.fp})
	}
	return map[string]any{
		"environment": environment(seed),
		"workload": map[string]any{
			"name":            s.name,
			"logical_pages":   deviceConfig().LogicalPages(),
			"warmup_requests": s.warmup,
			"requests":        s.requests,
			"offered_iops":    s.offered,
			"streams":         sizes,
		},
		"repetitions":  timings,
		"fingerprints": fps,
		"validation":   "unvalidated: the repository holds no real-hardware reference, so no error figure is given",
		"problems":     problems,
	}
}
