package memcheck

import (
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// Reference is a deliberately naive transcription of butterfly MemCheck
// (§5.2 with definedness facts) for the differential tests: one piece, no
// pools, no recycling, no wing fold — each body unions its wings afresh.
// It shares only the report text with Butterfly, so the shipped passes are
// checked against an independent derivation of the same verdicts. Its SOS
// is the one-piece sets.ShardedIntervals, the canonical FinalSOS form.
type Reference struct {
	// FilterBelow matches Butterfly.FilterBelow.
	FilterBelow uint64
}

var _ core.Lifeguard = (*Reference)(nil)

// NewReference returns the naive reference with the given heap filter.
func NewReference(filterBelow uint64) *Reference { return &Reference{FilterBelow: filterBelow} }

type refSummary struct {
	gen, kill *sets.IntervalSet // sequential block summary
	killAny   *sets.IntervalSet // SIDE-OUT: every byte the block undefines
}

// Name implements core.Lifeguard.
func (r *Reference) Name() string { return "memcheck-reference" }

// BottomState implements core.Lifeguard.
func (r *Reference) BottomState() core.State { return sets.ShardedIntervals{sets.NewIntervalSet()} }

func (r *Reference) relevant(e trace.Event) bool {
	switch e.Kind {
	case trace.Read, trace.Write, trace.Alloc, trace.Free:
		return e.Hi() > r.FilterBelow
	}
	return false
}

// FirstPass implements core.Lifeguard.
func (r *Reference) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	// LSOS = (SOS − head.KILL) ∪ (head.GEN − other threads' KILL in l−2).
	lsos := ctx.SOS.(sets.ShardedIntervals)[0].Clone()
	if ctx.Head != nil {
		head := ctx.Head.(*refSummary)
		fromHead := head.gen.Clone()
		for tt, s2 := range ctx.Epoch2Back {
			if trace.ThreadID(tt) != b.Thread {
				fromHead = fromHead.Subtract(s2.(*refSummary).kill)
			}
		}
		lsos = lsos.Subtract(head.kill).Union(fromHead)
	}
	s := &refSummary{sets.NewIntervalSet(), sets.NewIntervalSet(), sets.NewIntervalSet()}
	var reports []core.Report
	for i, e := range b.Events {
		if !r.relevant(e) {
			continue
		}
		lo, hi := e.Lo(), e.Hi()
		switch e.Kind {
		case trace.Read:
			if !lsos.ContainsRange(lo, hi) {
				reports = append(reports, core.Report{Ref: b.Ref(i), Ev: e, Code: firstReport(e)})
			}
		case trace.Write:
			lsos.AddRange(lo, hi)
			s.gen.AddRange(lo, hi)
			s.kill.RemoveRange(lo, hi)
		case trace.Alloc, trace.Free:
			lsos.RemoveRange(lo, hi)
			s.kill.AddRange(lo, hi)
			s.gen.RemoveRange(lo, hi)
			s.killAny.AddRange(lo, hi)
		}
	}
	return s, reports
}

// SecondPass implements core.Lifeguard: flag reads overlapping the union of
// every wing's undefinitions.
func (r *Reference) SecondPass(b *epoch.Block, _ core.PassContext, wings []core.Summary) []core.Report {
	kills := sets.NewIntervalSet()
	for _, w := range wings {
		kills = kills.Union(w.(*refSummary).killAny)
	}
	var reports []core.Report
	for i, e := range b.Events {
		if e.Kind == trace.Read && r.relevant(e) && kills.OverlapsRange(e.Lo(), e.Hi()) {
			reports = append(reports, core.Report{Ref: b.Ref(i), Ev: e, Code: secondReport(e)})
		}
	}
	return reports
}

// UpdateSOS implements core.Lifeguard: SOS_{l+2} = GENₗ ∪ (SOS_{l+1} −
// KILLₗ), where KILLₗ is every thread's KILL and a byte of GEN_{l,t}
// reaches GENₗ unless another thread t' undefines it in epochs l−1..l
// without redefining it afterwards.
func (r *Reference) UpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	kill, gen := sets.NewIntervalSet(), sets.NewIntervalSet()
	for t, st := range curEpoch {
		s := st.(*refSummary)
		kill = kill.Union(s.kill)
		g := s.gen.Clone()
		for tt, o := range curEpoch {
			if tt == t {
				continue
			}
			cur := o.(*refSummary)
			killedSpan, gennedSpan := cur.kill.Clone(), cur.gen.Clone()
			if prevEpoch != nil {
				p := prevEpoch[tt].(*refSummary)
				killedSpan = killedSpan.Union(p.kill)
				gennedSpan = gennedSpan.Union(p.gen.Subtract(cur.kill))
			}
			g = g.Subtract(killedSpan.Subtract(gennedSpan))
		}
		gen = gen.Union(g)
	}
	return sets.ShardedIntervals{prev.(sets.ShardedIntervals)[0].Subtract(kill).Union(gen)}
}
