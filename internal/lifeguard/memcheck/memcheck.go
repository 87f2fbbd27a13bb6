// Package memcheck implements a definedness-checking lifeguard in the style
// of Valgrind's Memcheck (the same tool family as the paper's AddrCheck
// citation [26]): it flags reads of memory that may never have been written
// since allocation. The paper positions butterfly analysis as a generic
// framework for lifeguards with a generate/propagate structure (§5, §8);
// this package is the repository's demonstration that a third lifeguard
// drops into the framework unchanged.
//
// Definedness is a reaching-expressions-shaped fact over byte intervals:
// a byte is *defined* at a read only if every valid ordering writes it
// beforehand (and no interleaving can undefine it in between), so
//
//	GEN  = stores (they define bytes)
//	KILL = allocations and frees (fresh memory is undefined; freed memory's
//	       contents are meaningless)
//
// exactly mirroring §5.2 with the roles recast, plus the §6.1-style
// isolation check: a read racing a definedness change in the wings is
// flagged. The adaptation keeps the framework guarantee: any read of
// undefined memory visible under some valid ordering is reported (zero
// false negatives), at the cost of conservative positives near epoch
// boundaries.
//
// The butterfly machinery — LSOS, epoch summary, wing fold, shard pieces,
// pools — is lifeguard.Intervals, shared with AddrCheck; this package
// supplies the per-event rules.
package memcheck

import (
	"fmt"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard"
	"butterfly/internal/trace"
)

// Report codes produced by MemCheck.
const (
	// CodeUndefRead flags a read of bytes that do not appear defined.
	CodeUndefRead = "memcheck.uninitialized-read"
	// CodeIsolation flags a read concurrent with a definedness change.
	CodeIsolation = "memcheck.concurrent-definedness-change"
)

// Butterfly is the butterfly-analysis MemCheck lifeguard. The SOS is the
// set of defined bytes.
type Butterfly struct {
	// FilterBelow ignores events whose byte range lies entirely below this
	// bound (heap-only monitoring).
	FilterBelow uint64
	lifeguard.Intervals
}

var _ core.ShardedLifeguard = (*Butterfly)(nil)

// New returns a MemCheck ignoring addresses below filterBelow.
func New(filterBelow uint64) *Butterfly { return &Butterfly{FilterBelow: filterBelow} }

// Name implements core.Lifeguard.
func (m *Butterfly) Name() string { return "memcheck" }

// rules: stores generate definedness, allocations and frees destroy it,
// and only destructions are exposed to the wings — a wing *write* only adds
// definedness, which is at worst early (like the paper's "tainted early"
// argument, harmless to soundness).
var rules = lifeguard.IntervalRules{
	First: func(v *lifeguard.PieceView, e trace.Event, lo, hi uint64) bool {
		switch e.Kind {
		case trace.Read:
			return !v.LSOS.ContainsRange(lo, hi)
		case trace.Write:
			v.Generate(lo, hi)
		default:
			v.Destroy(lo, hi)
			v.Sum.Change.AddRange(lo, hi)
		}
		return false
	},
	Second: func(v *lifeguard.PieceView, e trace.Event, lo, hi uint64) bool {
		return e.Kind == trace.Read && v.WingChanged(lo, hi)
	},
	FirstReport:  firstReport,
	SecondReport: secondReport,
}

func firstReport(trace.Event) string { return CodeUndefRead }

func secondReport(trace.Event) string { return CodeIsolation }

// The text of each code, rendered only where a report is read.
func init() {
	core.RegisterRenderer(CodeUndefRead, func(e trace.Event) string {
		return fmt.Sprintf("read of [%#x,%#x) may see uninitialized memory", e.Lo(), e.Hi())
	})
	core.RegisterRenderer(CodeIsolation, func(e trace.Event) string {
		return fmt.Sprintf("read of [%#x,%#x) concurrent with a definedness change", e.Lo(), e.Hi())
	})
}

// FirstPass implements core.Lifeguard: build the summary and run the
// per-instruction definedness checks against the LSOS.
func (m *Butterfly) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	return rules.FirstPass(b, ctx, m.FilterBelow)
}

// SecondPass implements core.Lifeguard: flag reads racing a definedness
// destruction in the wings.
func (m *Butterfly) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	return rules.SecondPass(b, ctx, wings, m.FilterBelow)
}
