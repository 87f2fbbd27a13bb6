package lifeguard

import (
	"slices"
	"sync"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// The byte-interval kernel shared by AddrCheck and MemCheck (DESIGN.md
// §11–§12). Both lifeguards are the §5.2 reaching-expressions analysis over
// byte intervals with different roles for GEN and KILL, so the butterfly
// machinery is written once here: the LSOS, the two-epoch-span epoch
// summary, the SOS apply, the O(T) wing fold of changes, the pools, and the
// piece loop. A lifeguard supplies only IntervalRules, its per-event
// semantics.
//
// Every summary, wing fold and SOS is split into K pieces by address
// granule (sets.ShardOfAddr); an unsharded run is the one-piece case, K = 1,
// of the same passes. The checks are "does every/any byte of [lo,hi)
// satisfy P against an address-indexed set", so a whole-range verdict is
// the OR of the verdicts of its per-shard pieces, and the pieces of one
// event are disjoint, so mutating one cannot change another's verdict.
// Each piece records the events it flags; merging the lists in event order
// reproduces the one-piece report sequence byte for byte.

// IntervalPiece is one address shard of a block summary.
type IntervalPiece struct {
	// Gen and Kill are the sequential block summary over the piece's bytes:
	// Gen holds at block end, Kill was destroyed and not regenerated.
	Gen, Kill *sets.IntervalSet
	// Change is every byte whose fact the block generates or destroys
	// anywhere in the block, as the wings see it: the change may interleave
	// with any position of a concurrent body.
	Change *sets.IntervalSet
	// Access is every byte the block uses such that a concurrent change of
	// it is a conflict. Only a body's changes query the wings' accesses, and
	// changes are rare next to accesses, so accesses are probed wing by
	// wing rather than folded: folding them would copy the largest sets of
	// the window O(T) times per row.
	Access *sets.IntervalSet
}

// intervalSummary is a block summary: one piece per shard.
type intervalSummary struct{ pieces []IntervalPiece }

func piece(s core.Summary, k int) *IntervalPiece { return &s.(*intervalSummary).pieces[k] }

// PieceView is what a rule sees of one shard during a pass over a block.
type PieceView struct {
	// LSOS is the shard's local strongly ordered state, advanced event by
	// event during the first pass.
	LSOS *sets.IntervalSet
	// Sum is the block's summary piece under construction (first pass).
	Sum *IntervalPiece

	// Second pass: the change folds of up to three wing rows, and the
	// wing summaries themselves.
	folds [3]*sets.IntervalSet
	nf    int
	wings []core.Summary
	k     int
}

// Generate records an event that makes [lo,hi) hold: LSOS_k = GEN ∪
// (LSOS_{k−1} − KILL), and the block summary follows.
func (v *PieceView) Generate(lo, hi uint64) {
	v.LSOS.AddRange(lo, hi)
	v.Sum.Gen.AddRange(lo, hi)
	v.Sum.Kill.RemoveRange(lo, hi)
}

// Destroy records an event that makes [lo,hi) stop holding.
func (v *PieceView) Destroy(lo, hi uint64) {
	v.LSOS.RemoveRange(lo, hi)
	v.Sum.Kill.AddRange(lo, hi)
	v.Sum.Gen.RemoveRange(lo, hi)
}

// WingChanged reports whether a wing block changes a byte of [lo,hi).
func (v *PieceView) WingChanged(lo, hi uint64) bool {
	for _, f := range v.folds[:v.nf] {
		if f.OverlapsRange(lo, hi) {
			return true
		}
	}
	return false
}

// WingAccessed reports whether a wing block accesses a byte of [lo,hi).
func (v *PieceView) WingAccessed(lo, hi uint64) bool {
	for _, w := range v.wings {
		if piece(w, v.k).Access.OverlapsRange(lo, hi) {
			return true
		}
	}
	return false
}

// IntervalRules are an interval lifeguard's per-event semantics. Each rule
// sees one shard piece [lo,hi) of an event e and reports whether that
// piece is flagged; an event is reported once if any of its pieces is.
type IntervalRules struct {
	// First replays a piece against v.LSOS, recording it in v.Sum, and
	// checks it (the §6.1 per-instruction check).
	First func(v *PieceView, e trace.Event, lo, hi uint64) bool
	// Second checks a piece against the wings (the isolation check).
	Second func(v *PieceView, e trace.Event, lo, hi uint64) bool
	// FirstReport and SecondReport name the condition a flagged event
	// reports in each pass. The report's text is the renderer the
	// lifeguard registers for that code (core.RegisterRenderer).
	FirstReport, SecondReport func(e trace.Event) (code string)
}

// relevant reports whether an interval lifeguard monitors e: a memory or
// allocation event whose range reaches filterBelow.
func relevant(e trace.Event, filterBelow uint64) bool {
	switch e.Kind {
	case trace.Read, trace.Write, trace.Alloc, trace.Free:
		return e.Hi() > filterBelow
	}
	return false
}

func shards(sh *core.Sharding) int {
	if sh == nil {
		return 1
	}
	return sh.K()
}

// FirstPass builds b's summary and runs r.First over b against the LSOS.
func (r *IntervalRules) FirstPass(b *epoch.Block, ctx core.PassContext, filterBelow uint64) (core.Summary, []core.Report) {
	sh := ctx.Sharding
	s, sc := getSummary(shards(sh)), getScratch(shards(sh))
	defer putScratch(sc)
	if sh == nil {
		sc.pieces[0].first(r, b, ctx, s, 0, 1, filterBelow)
	} else {
		c := ctx // the shard tasks capture a copy, so ctx stays on the stack
		sh.Do(func(k int) { sc.pieces[k].first(r, b, c, s, k, sh.K(), filterBelow) })
	}
	return s, sc.reports(b, r.FirstReport)
}

func (c *pieceScratch) first(r *IntervalRules, b *epoch.Block, ctx core.PassContext, s *intervalSummary, k, K int, filterBelow uint64) {
	c.view.Sum = &s.pieces[k]
	lsos(c.view.LSOS, b.Thread, ctx, k)
	c.scan(b, k, K, filterBelow, r.First)
}

// lsos sets dst to shard k of LSOS_{l,t} (the reaching-expressions form,
// §5.2.1): head generations survive unless another thread destroyed those
// bytes in epoch l−2; SOS bytes survive unless the head destroyed them.
func lsos(dst *sets.IntervalSet, t trace.ThreadID, ctx core.PassContext, k int) {
	dst.CopyFrom(ctx.SOS.(sets.ShardedIntervals)[k])
	if ctx.Head == nil {
		return
	}
	head := piece(ctx.Head, k)
	fromHead := sets.GetSet()
	fromHead.CopyFrom(head.Gen)
	for tt, s2 := range ctx.Epoch2Back {
		if trace.ThreadID(tt) != t && s2 != nil {
			fromHead.SubtractInPlace(piece(s2, k).Kill)
		}
	}
	dst.SubtractInPlace(head.Kill)
	dst.UnionInPlace(fromHead)
	sets.PutSet(fromHead)
}

// SecondPass runs r.Second over b against its wings: the driver's change
// folds (ctx.WingAggs, which the drivers always supply to a
// WingAggregator) and the wing summaries.
func (r *IntervalRules) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary, filterBelow uint64) []core.Report {
	sh := ctx.Sharding
	sc := getScratch(shards(sh))
	defer putScratch(sc)
	if sh == nil {
		sc.pieces[0].second(r, b, &ctx.WingAggs, wings, 0, 1, filterBelow)
	} else {
		aggs := ctx.WingAggs // as in FirstPass
		sh.Do(func(k int) { sc.pieces[k].second(r, b, &aggs, wings, k, sh.K(), filterBelow) })
	}
	return sc.reports(b, r.SecondReport)
}

func (c *pieceScratch) second(r *IntervalRules, b *epoch.Block, aggs *[3]any, wings []core.Summary, k, K int, filterBelow uint64) {
	v := &c.view
	v.nf, v.wings, v.k = 0, wings, k
	live := false
	for _, a := range aggs {
		// A fold of no summaries has no pieces (EmptyWings).
		if a == nil || len(a.(*wingAgg).change) == 0 {
			continue
		}
		f := a.(*wingAgg).change[k]
		v.folds[v.nf] = f
		v.nf++
		live = live || !f.Empty()
	}
	for _, w := range wings {
		live = live || !piece(w, k).Access.Empty()
	}
	if live {
		c.scan(b, k, K, filterBelow, r.Second)
	}
}

// scan records in c.flagged every relevant event of b that rule flags on
// some shard-k piece. The rule runs on every piece, in event order.
func (c *pieceScratch) scan(b *epoch.Block, k, K int, filterBelow uint64, rule func(*PieceView, trace.Event, uint64, uint64) bool) {
	v := &c.view
	for i, e := range b.Events {
		if !relevant(e, filterBelow) {
			continue
		}
		lo, hi := e.Lo(), e.Hi()
		bad := false
		if sk, one := sets.SingleShardOfRange(lo, hi, K); one {
			bad = sk == k && rule(v, e, lo, hi)
		} else {
			sets.ForEachShardPiece(k, K, lo, hi, func(plo, phi uint64) {
				bad = rule(v, e, plo, phi) || bad
			})
		}
		if bad {
			c.flagged = append(c.flagged, int32(i))
		}
	}
}

// reports merges the pieces' flagged events in event order, reporting each
// once.
func (s *scratch) reports(b *epoch.Block, code func(trace.Event) string) []core.Report {
	flagged := s.pieces[0].flagged
	if len(s.pieces) > 1 {
		s.all = s.all[:0]
		for k := range s.pieces {
			s.all = append(s.all, s.pieces[k].flagged...)
		}
		slices.Sort(s.all)
		flagged = slices.Compact(s.all)
	}
	if len(flagged) == 0 {
		return nil
	}
	out := make([]core.Report, 0, len(flagged))
	for _, i := range flagged {
		e := b.Events[i]
		out = append(out, core.Report{Ref: b.Ref(int(i)), Ev: e, Code: code(e)})
	}
	return out
}

// Intervals implements every core.Lifeguard extension an interval
// lifeguard needs beyond its passes; a lifeguard embeds it. The SOS is a
// sets.ShardedIntervals of K pieces, one when unsharded, and that one-piece
// form is the canonical FinalSOS at every K.
type Intervals struct{}

var (
	_ core.WingAggregator  = Intervals{}
	_ core.SummaryRecycler = Intervals{}
	_ core.StateRecycler   = Intervals{}
	_ core.WingRecycler    = Intervals{}
	_ core.StateSizer      = Intervals{}
)

// BottomState implements core.Lifeguard: the empty one-piece SOS.
func (Intervals) BottomState() core.State { return getState(1) }

// CanShard implements core.ShardedLifeguard.
func (Intervals) CanShard() bool { return true }

// BottomStateSharded implements core.ShardedLifeguard.
func (Intervals) BottomStateSharded(sh *core.Sharding) core.State { return getState(sh.K()) }

// StateSize implements core.StateSizer: the number of disjoint intervals
// in the SOS (its metadata footprint, not its byte coverage).
func (Intervals) StateSize(s core.State) int { return s.(sets.ShardedIntervals).NumIntervals() }

// MergeSOS implements core.ShardedLifeguard.
func (Intervals) MergeSOS(s core.State) core.State {
	return sets.ShardedIntervals{s.(sets.ShardedIntervals).Merge()}
}

// UpdateSOS implements core.Lifeguard.
func (iv Intervals) UpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	return iv.UpdateSOSSharded(nil, prev, prevEpoch, curEpoch)
}

// UpdateSOSSharded implements core.ShardedLifeguard with the
// reaching-expressions epoch summary (§5.2), piece by piece:
//
//	KILLₗ = ⋃ₜ KILL_{l,t}
//	GENₗ  = ⋃ₜ (GEN_{l,t} − ⋃_{t'≠t}(killedSpan(t') − gennedSpan(t')))
//
// where killedSpan(t') = KILL_{l−1,t'} ∪ KILL_{l,t'} and gennedSpan(t') =
// (GEN_{l−1,t'} − KILL_{l,t'}) ∪ GEN_{l,t'}: a byte generated by thread t
// survives every interleaving only if no other thread's net effect can
// destroy it. SOS_{l+2} = GENₗ ∪ (SOS_{l+1} − KILLₗ).
func (Intervals) UpdateSOSSharded(sh *core.Sharding, prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	old := prev.(sets.ShardedIntervals)
	next := getState(len(old))
	out := next.(sets.ShardedIntervals)
	if sh == nil {
		update(out[0], old[0], prevEpoch, curEpoch, 0)
	} else {
		sh.Do(func(k int) { update(out[k], old[k], prevEpoch, curEpoch, k) })
	}
	return next
}

func update(out, old *sets.IntervalSet, prevEpoch, curEpoch []core.Summary, k int) {
	kill := sets.GetSet()
	for _, s := range curEpoch {
		kill.UnionInPlace(piece(s, k).Kill)
	}
	gen := sets.GetSet()
	g := sets.GetSet()
	killedSpan := sets.GetSet()
	gennedSpan := sets.GetSet()
	scratch := sets.GetSet()
	for t := range curEpoch {
		g.CopyFrom(piece(curEpoch[t], k).Gen)
		for tt := range curEpoch {
			if tt == t || g.Empty() {
				continue
			}
			cur := piece(curEpoch[tt], k)
			killedSpan.CopyFrom(cur.Kill)
			gennedSpan.CopyFrom(cur.Gen)
			if prevEpoch != nil {
				prev := piece(prevEpoch[tt], k)
				killedSpan.UnionInPlace(prev.Kill)
				scratch.CopyFrom(prev.Gen)
				scratch.SubtractInPlace(cur.Kill)
				gennedSpan.UnionInPlace(scratch)
			}
			killedSpan.SubtractInPlace(gennedSpan)
			g.SubtractInPlace(killedSpan)
		}
		gen.UnionInPlace(g)
	}
	for _, x := range [...]*sets.IntervalSet{g, killedSpan, gennedSpan, scratch} {
		sets.PutSet(x)
	}
	out.CopyFrom(old)
	out.SubtractInPlace(kill)
	out.UnionInPlace(gen)
	sets.PutSet(gen)
	sets.PutSet(kill)
}

// wingAgg is a wing fold (the SIDE-IN of changes): the union of the covered
// blocks' changes, one set per shard, or none for the fold of no summaries,
// which EmptyWings returns without knowing K.
type wingAgg struct{ change []*sets.IntervalSet }

// EmptyWings implements core.WingAggregator.
func (Intervals) EmptyWings() any { return getWingAgg(0) }

// AddWing implements core.WingAggregator.
func (Intervals) AddWing(agg any, s core.Summary) any {
	w, ss := agg.(*wingAgg), s.(*intervalSummary)
	out := getWingAgg(len(ss.pieces))
	for k, o := range out.change {
		if len(w.change) > 0 {
			o.CopyFrom(w.change[k])
		}
		o.UnionInPlace(ss.pieces[k].Change)
	}
	return out
}

// MergeWings implements core.WingAggregator.
func (Intervals) MergeWings(x, y any) any {
	wx, wy := x.(*wingAgg), y.(*wingAgg)
	if len(wx.change) == 0 {
		wx, wy = wy, wx
	}
	out := getWingAgg(len(wx.change))
	for k, o := range out.change {
		o.CopyFrom(wx.change[k])
		if len(wy.change) > 0 {
			o.UnionInPlace(wy.change[k])
		}
	}
	return out
}

// Pooled storage (DESIGN.md §12). Summaries, wing folds, SOS generations
// and pass scratch are recycled whole, with their interval sets attached;
// the driver hands each back through the recycler hooks once it leaves the
// butterfly window, so the steady-state epoch loop allocates nothing. A
// released value is reset to canonical empty form, indistinguishable from
// a fresh one. Summaries, folds and scratch of K pieces are reused at any K
// up to their capacity: a piece past the length in use was emptied when it
// was last in use. SOS generations are reused at their own K only.

var (
	summaryPool sync.Pool
	wingPool    sync.Pool
	statePool   sync.Pool
	scratchPool sync.Pool
)

func getSummary(K int) *intervalSummary {
	s, _ := summaryPool.Get().(*intervalSummary)
	if s == nil || cap(s.pieces) < K {
		s = &intervalSummary{pieces: make([]IntervalPiece, K)}
		for k := range s.pieces {
			s.pieces[k] = IntervalPiece{Gen: sets.GetSet(), Kill: sets.GetSet(), Change: sets.GetSet(), Access: sets.GetSet()}
		}
	}
	s.pieces = s.pieces[:K]
	return s
}

func getWingAgg(K int) *wingAgg {
	w, _ := wingPool.Get().(*wingAgg)
	if w == nil || cap(w.change) < K {
		w = &wingAgg{change: make([]*sets.IntervalSet, K)}
		for k := range w.change {
			w.change[k] = sets.GetSet()
		}
	}
	w.change = w.change[:K]
	return w
}

// getState returns an empty SOS of K pieces. Pooled states travel as the
// core.State interface values they were returned as: re-boxing a slice
// into an interface would allocate on every SOS update.
func getState(K int) core.State {
	if s := statePool.Get(); s != nil && len(s.(sets.ShardedIntervals)) == K {
		return s
	}
	return sets.NewShardedIntervals(K)
}

// pieceScratch is one shard's working storage for a pass.
type pieceScratch struct {
	view    PieceView
	flagged []int32 // indices of the events flagged in this shard, ascending
}

// scratch is a pass's working storage: one pieceScratch per shard.
type scratch struct {
	pieces []pieceScratch
	all    []int32
}

func getScratch(K int) *scratch {
	s, _ := scratchPool.Get().(*scratch)
	if s == nil || cap(s.pieces) < K {
		s = &scratch{pieces: make([]pieceScratch, K)}
		for k := range s.pieces {
			s.pieces[k].view.LSOS = sets.GetSet()
		}
	}
	s.pieces = s.pieces[:K]
	return s
}

func putScratch(s *scratch) {
	for k := range s.pieces {
		p := &s.pieces[k]
		p.view.LSOS.Reset()
		*p = pieceScratch{view: PieceView{LSOS: p.view.LSOS}, flagged: p.flagged[:0]}
	}
	scratchPool.Put(s)
}

// RecycleSummary implements core.SummaryRecycler.
func (Intervals) RecycleSummary(s core.Summary) {
	if v, _ := s.(*intervalSummary); v != nil {
		for _, p := range v.pieces {
			p.Gen.Reset()
			p.Kill.Reset()
			p.Change.Reset()
			p.Access.Reset()
		}
		summaryPool.Put(v)
	}
}

// RecycleState implements core.StateRecycler.
func (Intervals) RecycleState(s core.State) {
	if v, _ := s.(sets.ShardedIntervals); v != nil {
		for _, p := range v {
			p.Reset()
		}
		statePool.Put(s)
	}
}

// RecycleWings implements core.WingRecycler.
func (Intervals) RecycleWings(agg any) {
	if w, _ := agg.(*wingAgg); w != nil {
		for _, c := range w.change {
			c.Reset()
		}
		wingPool.Put(w)
	}
}
