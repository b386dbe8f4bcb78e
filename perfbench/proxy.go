package main

import (
	"time"

	"leaftl/internal/addr"
	"leaftl/internal/ftl"
	"leaftl/internal/leaftl"
)

// span accumulates one timed boundary: how many calls crossed it and
// the wall time they spent inside.
type span struct {
	calls uint64
	ns    int64
}

func (s *span) add(d time.Duration) {
	s.calls++
	s.ns += int64(d)
}

func (s span) nsPerCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// maxCapturedPairs bounds the Commit batches kept for the PLR re-fit
// (8 bytes a pair, so 8 MB at most).
const maxCapturedPairs = 1 << 20

// tracedScheme is a forwarding proxy around the LeaFTL scheme that times
// every call the device makes into it. It implements every optional
// interface ssd.New, the GC path and CheckInvariants probe for, so a
// device built on it behaves exactly like one built on the bare scheme.
type tracedScheme struct {
	s *leaftl.Scheme

	// inside is the wall time spent in timed scheme calls, read by the
	// device wrapper before and after each device call to split the
	// device's self time from the scheme's.
	inside int64

	translate, pagein, commit, commitGC, maintain, noteRead span

	batches [][]addr.Mapping
	pairs   int
}

func newTracedScheme(s *leaftl.Scheme) *tracedScheme { return &tracedScheme{s: s} }

// reset forgets everything recorded so far (set-up traffic is not
// measured).
func (p *tracedScheme) reset() {
	*p = tracedScheme{s: p.s}
}

func (p *tracedScheme) record(sp *span, start time.Time) {
	d := time.Since(start)
	sp.add(d)
	p.inside += int64(d)
}

func (p *tracedScheme) capture(pairs []addr.Mapping) {
	if p.pairs+len(pairs) > maxCapturedPairs {
		return
	}
	p.batches = append(p.batches, append([]addr.Mapping(nil), pairs...))
	p.pairs += len(pairs)
}

func (p *tracedScheme) Name() string { return p.s.Name() }

// Translate splits lookups by whether they paged mapping state in: a
// translation that charged a translation-page read ran the pager (and,
// with the journal, a chain replay); one that did not is a pure lookup.
func (p *tracedScheme) Translate(lpa addr.LPA) (ftl.Translation, bool) {
	start := time.Now()
	tr, ok := p.s.Translate(lpa)
	if tr.Cost.MetaReads > 0 {
		p.record(&p.pagein, start)
	} else {
		p.record(&p.translate, start)
	}
	return tr, ok
}

func (p *tracedScheme) Commit(pairs []addr.Mapping) ftl.Cost {
	p.capture(pairs)
	start := time.Now()
	c := p.s.Commit(pairs)
	p.record(&p.commit, start)
	return c
}

func (p *tracedScheme) CommitGC(pairs []addr.Mapping) (ftl.Cost, int) {
	start := time.Now()
	c, n := p.s.CommitGC(pairs)
	p.record(&p.commitGC, start)
	return c, n
}

func (p *tracedScheme) Maintain(hostPageWrites uint64) ftl.Cost {
	start := time.Now()
	c := p.s.Maintain(hostPageWrites)
	p.record(&p.maintain, start)
	return c
}

func (p *tracedScheme) NoteRead(lpa addr.LPA, predicted, actual addr.PPA, approx, hintResolved bool) ftl.Cost {
	start := time.Now()
	c := p.s.NoteRead(lpa, predicted, actual, approx, hintResolved)
	p.record(&p.noteRead, start)
	return c
}

func (p *tracedScheme) NoteExact(lpa addr.LPA) ftl.Cost {
	start := time.Now()
	c := p.s.NoteExact(lpa)
	p.record(&p.noteRead, start)
	return c
}

// The remaining methods forward untimed: they are O(1) accessors or run
// only outside the measured phase.

func (p *tracedScheme) SetBudget(bytes int)                 { p.s.SetBudget(bytes) }
func (p *tracedScheme) MemoryBytes() int                    { return p.s.MemoryBytes() }
func (p *tracedScheme) FullSizeBytes() int                  { return p.s.FullSizeBytes() }
func (p *tracedScheme) Gamma() int                          { return p.s.Gamma() }
func (p *tracedScheme) MaxGroupGamma() int                  { return p.s.MaxGroupGamma() }
func (p *tracedScheme) FeedbackEnabled() bool               { return p.s.FeedbackEnabled() }
func (p *tracedScheme) TranslationPages() int               { return p.s.TranslationPages() }
func (p *tracedScheme) CheckMapping() error                 { return p.s.CheckMapping() }
func (p *tracedScheme) JournalEnabled() bool                { return p.s.JournalEnabled() }
func (p *tracedScheme) JournalStats() ftl.JournalStats      { return p.s.JournalStats() }
func (p *tracedScheme) SetJournalCrashHook(fn func(string)) { p.s.SetJournalCrashHook(fn) }
func (p *tracedScheme) ConfigureJournal(pagesPerBlock, maxPages int) {
	p.s.ConfigureJournal(pagesPerBlock, maxPages)
}
func (p *tracedScheme) PersistedGroups() map[addr.GroupID][]byte { return p.s.PersistedGroups() }
func (p *tracedScheme) RestoreGroups(images map[addr.GroupID][]byte) error {
	return p.s.RestoreGroups(images)
}
func (p *tracedScheme) AuditExact(truth func(addr.LPA) (addr.PPA, bool)) error {
	return p.s.AuditExact(truth)
}

var (
	_ ftl.Scheme        = (*tracedScheme)(nil)
	_ ftl.Gamma         = (*tracedScheme)(nil)
	_ ftl.GroupPaged    = (*tracedScheme)(nil)
	_ ftl.Journaled     = (*tracedScheme)(nil)
	_ ftl.MissReporter  = (*tracedScheme)(nil)
	_ ftl.AdaptiveGamma = (*tracedScheme)(nil)
	_ ftl.GCRelearner   = (*tracedScheme)(nil)
	_ ftl.ExactAuditor  = (*tracedScheme)(nil)

	// Probed by ssd.New through anonymous interfaces.
	_ interface{ FeedbackEnabled() bool }            = (*tracedScheme)(nil)
	_ interface{ SetJournalCrashHook(func(string)) } = (*tracedScheme)(nil)
)
