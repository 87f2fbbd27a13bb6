// Package addrcheck implements the AddrCheck memory-checking lifeguard —
// the paper's §6.1 instantiation of butterfly reaching expressions — plus
// its sequential oracle and a naive butterfly reference for the tests.
//
// AddrCheck verifies that every memory access touches allocated memory,
// every free targets allocated memory, and every allocation targets
// unallocated memory. In the butterfly adaptation, allocations play the role
// of GEN and deallocations of KILL over *byte intervals*. The checking
// algorithm has two parts: per-instruction checks against the LSOS (does the
// address appear allocated within this thread's strongly ordered view?) and
// an isolation check against the wings (was any allocation state change
// concurrent with a conflicting operation? — "a race on the metadata
// state"). Flagging is conservative: every true error is reported
// (Theorem 6.1), at the cost of false positives when safe allocation
// hand-offs land in adjacent epochs (Figure 9).
//
// The butterfly machinery — LSOS, epoch summary, wing fold, shard pieces,
// pools — is lifeguard.Intervals; this package supplies the per-event rules.
package addrcheck

import (
	"fmt"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard"
	"butterfly/internal/trace"
)

// Report codes produced by AddrCheck.
const (
	// CodeUnallocAccess flags a read or write to memory that does not
	// appear allocated.
	CodeUnallocAccess = "addrcheck.unallocated-access"
	// CodeUnallocFree flags a free of memory that does not appear allocated.
	CodeUnallocFree = "addrcheck.unallocated-free"
	// CodeDoubleAlloc flags an allocation of memory that appears allocated.
	CodeDoubleAlloc = "addrcheck.double-alloc"
	// CodeIsolation flags an operation that conflicts with a concurrent
	// allocation-state change in the wings (metadata race).
	CodeIsolation = "addrcheck.concurrent-metadata-change"
)

// Butterfly is the butterfly-analysis AddrCheck lifeguard. The SOS is the
// set of allocated bytes.
type Butterfly struct {
	// FilterBelow ignores events whose address range lies entirely below
	// this bound — the paper's heap-only configuration filters stack
	// accesses. Zero monitors everything.
	FilterBelow uint64
	lifeguard.Intervals
}

var _ core.ShardedLifeguard = (*Butterfly)(nil)

// New returns a heap-only AddrCheck that ignores addresses below filterBelow.
func New(filterBelow uint64) *Butterfly {
	return &Butterfly{FilterBelow: filterBelow}
}

// Name implements core.Lifeguard.
func (a *Butterfly) Name() string { return "addrcheck" }

// rules: allocations generate, frees destroy; both change the allocation
// metadata the wings see, and reads and writes are the accesses a
// concurrent change conflicts with.
var rules = lifeguard.IntervalRules{
	First: func(v *lifeguard.PieceView, e trace.Event, lo, hi uint64) bool {
		switch e.Kind {
		case trace.Read, trace.Write:
			v.Sum.Access.AddRange(lo, hi)
			return !v.LSOS.ContainsRange(lo, hi)
		case trace.Alloc:
			bad := v.LSOS.OverlapsRange(lo, hi)
			v.Generate(lo, hi)
			v.Sum.Change.AddRange(lo, hi)
			return bad
		}
		bad := !v.LSOS.ContainsRange(lo, hi)
		v.Destroy(lo, hi)
		v.Sum.Change.AddRange(lo, hi)
		return bad
	},
	// The paper flags, with s the body's summary and S the union of the
	// wings',
	//
	//	((s.GEN ∪ s.KILL) ∩ (S.GEN ∪ S.KILL)) ∪
	//	(s.ACCESS ∩ (S.GEN ∪ S.KILL)) ∪ (S.ACCESS ∩ (s.GEN ∪ s.KILL))
	//
	// attributed to the body instructions that touch it; the S.ACCESS term
	// flags the body's allocs/frees (the wing access is flagged
	// symmetrically when its own block is the body).
	Second: func(v *lifeguard.PieceView, e trace.Event, lo, hi uint64) bool {
		if e.Kind == trace.Read || e.Kind == trace.Write {
			return v.WingChanged(lo, hi)
		}
		return v.WingChanged(lo, hi) || v.WingAccessed(lo, hi)
	},
	FirstReport:  firstReport,
	SecondReport: secondReport,
}

func firstReport(e trace.Event) string {
	switch e.Kind {
	case trace.Alloc:
		return CodeDoubleAlloc
	case trace.Free:
		return CodeUnallocFree
	}
	return CodeUnallocAccess
}

func secondReport(trace.Event) string { return CodeIsolation }

// The text of each code, rendered only where a report is read.
func init() {
	core.RegisterRenderer(CodeDoubleAlloc, func(e trace.Event) string {
		return fmt.Sprintf("allocation of [%#x,%#x) overlaps allocated memory", e.Lo(), e.Hi())
	})
	core.RegisterRenderer(CodeUnallocFree, func(e trace.Event) string {
		return fmt.Sprintf("free of [%#x,%#x) not within allocated memory", e.Lo(), e.Hi())
	})
	core.RegisterRenderer(CodeUnallocAccess, func(e trace.Event) string {
		return fmt.Sprintf("%v of [%#x,%#x) not within allocated memory", e.Kind, e.Lo(), e.Hi())
	})
	core.RegisterRenderer(CodeIsolation, func(e trace.Event) string {
		what := "an allocation-state change"
		if e.Kind == trace.Alloc || e.Kind == trace.Free {
			what = "a conflicting operation"
		}
		return fmt.Sprintf("%v of [%#x,%#x) concurrent with %s", e.Kind, e.Lo(), e.Hi(), what)
	})
}

// FirstPass implements core.Lifeguard: build the block summary and run the
// traditional per-instruction checks against the LSOS.
func (a *Butterfly) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	return rules.FirstPass(b, ctx, a.FilterBelow)
}

// SecondPass implements core.Lifeguard: the isolation check against the
// wings.
func (a *Butterfly) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	return rules.SecondPass(b, ctx, wings, a.FilterBelow)
}
