// Package core implements the butterfly analysis framework of
// "Butterfly Analysis: Adapting Dataflow Analysis to Dynamic Parallel
// Monitoring" (ASPLOS 2010).
//
// The framework analyzes a Grid of uncertainty epochs over a sliding window
// of three epochs. For a body block (l, t) the head is (l−1, t), the tail is
// (l+1, t), and the wings are blocks (l−1..l+1, t') for t' ≠ t. Instructions
// in the wings are potentially concurrent with the body; instructions two or
// more epochs apart are strictly ordered. State summarizing the strictly
// ordered past is the Strongly Ordered State (SOS); each block additionally
// sees a Local SOS (LSOS) that folds in its own head.
//
// Lifeguards run as two-pass algorithms (§4.3):
//
//	pass 1: per-block local analysis against the LSOS; produces a summary
//	        (the block's GEN/KILL plus its SIDE-OUT facts).
//	meet:   each body combines the summaries of its wings (SIDE-IN).
//	pass 2: per-block re-analysis with wing state; lifeguard checks fire.
//	update: the epoch's net effect (GENₗ/KILLₗ) advances the SOS.
//
// The Driver schedules these steps, owns the SOS (single writer), and — in
// parallel mode — runs each pass with one goroutine per thread separated by
// barriers, mirroring the paper's implementation. Two execution modes exist:
// Run analyzes a fully materialized epoch.Grid; RunStream (stream.go)
// ingests epoch rows incrementally from a BlockSource, overlaps decoding
// with analysis on persistent per-thread workers, and retains only the
// sliding window, so an unbounded trace can be monitored in bounded memory.
// Both modes produce identical results.
package core

import (
	"fmt"
	"sync"

	"butterfly/internal/epoch"
	"butterfly/internal/obs"
	"butterfly/internal/trace"
)

// State is lifeguard-defined strongly ordered state (e.g. a fact set for
// reaching definitions, an interval set for AddrCheck). Values handed to the
// driver are owned by it; lifeguards must not retain and mutate them.
type State any

// Summary is the lifeguard-defined first-pass block summary: whatever the
// lifeguard needs to expose a block to the wings of other butterflies
// (SIDE-OUT sets) plus its local GEN/KILL for epoch summarization.
type Summary any

// Report is one flagged condition (an error or a potential error).
type Report struct {
	// Ref names the instruction that triggered the report.
	Ref trace.Ref
	// Ev is the triggering event.
	Ev trace.Event
	// Code is a stable, machine-readable condition name
	// (e.g. "addrcheck.unallocated-access").
	Code string
	// Detail is optional free text for what Code and Ev do not say (a
	// LockSet race's racing bytes and thread set). A lifeguard whose text is
	// a pure function of (Code, Ev) leaves it empty and registers a renderer
	// instead, so its reports stay structured until Text renders them.
	Detail string
}

// renderers maps a report code to the function rendering its text from the
// triggering event. Filled by RegisterRenderer from package init functions
// and read-only afterwards.
var renderers = map[string]func(trace.Event) string{}

// RegisterRenderer makes render the text of every report with the given
// code and an empty Detail. Lifeguards call it from an init function, once
// per code they emit; registering a code twice panics.
func RegisterRenderer(code string, render func(ev trace.Event) string) {
	if _, dup := renderers[code]; dup {
		panic("core: report renderer registered twice for " + code)
	}
	renderers[code] = render
}

// Text is the report's human-readable explanation: Detail if it is set,
// else the rendering registered for Code, else "".
func (r Report) Text() string {
	if r.Detail != "" {
		return r.Detail
	}
	if render := renderers[r.Code]; render != nil {
		return render(r.Ev)
	}
	return ""
}

func (r Report) String() string {
	return fmt.Sprintf("%s at %v [%v]: %s", r.Code, r.Ref, r.Ev, r.Text())
}

// PassContext carries the strongly ordered inputs available to a pass over
// block (l, t).
type PassContext struct {
	// SOS is SOSₗ — state from instructions at least two epochs back.
	SOS State
	// Head is the summary of block (l−1, t), nil when l == 0.
	Head Summary
	// Epoch1Back holds the summaries of all blocks of epoch l−1 (nil when
	// l == 0); Epoch1Back[t'] is block (l−1, t').
	Epoch1Back []Summary
	// Epoch2Back holds the summaries of all blocks of epoch l−2 (nil when
	// l < 2). The LSOS equations need them: the head can interleave with
	// epoch l−2 of other threads.
	Epoch2Back []Summary
	// Own is the block's own first-pass summary. It is set only during the
	// second pass, where lifeguards such as TaintCheck record per-block
	// conclusions (LASTCHECK) that the later SOS update consumes. A block's
	// Own summary is never read concurrently by other threads' passes.
	Own Summary
	// WingAggs holds pre-folded wing aggregates when the lifeguard
	// implements WingAggregator: WingAggs[k] is the fold of epoch row
	// l−1+k's summaries excluding the body's own thread, or nil where the
	// window is clipped at a grid edge. WingAggs[1] (the body's own row,
	// which always exists) is non-nil exactly when the lifeguard aggregates,
	// at every shard count. Set only during the second pass; the wings slice
	// is still passed.
	WingAggs [3]any
	// Sharding is the run's shard scheduler when the driver executes in
	// sharded mode (DESIGN.md §11), nil otherwise. Non-nil means SOS, Head,
	// Epoch1Back/Epoch2Back and Own all carry K = Sharding.K() pieces and
	// the pass runs its per-shard work via Sharding.Do; nil means K = 1.
	Sharding *Sharding
}

// WingAggregator is an optional Lifeguard extension. The driver's naive
// wing walk re-folds the same epoch row once per body — O(T²) summary
// folds per epoch. A lifeguard whose wing meet is commutative and
// associative can implement WingAggregator; the driver then folds each row
// once into per-thread exclusive aggregates (prefix/suffix folds, O(T)
// AddWing calls per row) and hands them to SecondPass via
// PassContext.WingAggs. All three methods must return fresh aggregates and
// leave their arguments unmodified: the driver retains and reuses
// intermediate folds across calls.
type WingAggregator interface {
	// EmptyWings returns the fold of zero wing summaries.
	EmptyWings() any
	// AddWing returns agg extended with summary s.
	AddWing(agg any, s Summary) any
	// MergeWings returns the fold of two aggregates.
	MergeWings(a, b any) any
}

// exclAggRow folds one epoch row into per-thread exclusive aggregates:
// out[t] covers row[tt] for every tt ≠ t. A prefix fold and a running
// suffix fold give every exclusion in O(T) AddWing/MergeWings calls.
//
// out and pre are optional scratch slices, reused when their capacity
// allows. rec, when non-nil, receives every intermediate fold once the row
// is built: the WingAggregator contract guarantees MergeWings returns fresh
// aggregates, so the returned row never aliases the recycled prefixes and
// suffixes.
func exclAggRow(wa WingAggregator, row []Summary, out, pre []any, rec WingRecycler) []any {
	T := len(row)
	if cap(out) >= T {
		out = out[:T]
	} else {
		out = make([]any, T)
	}
	if cap(pre) >= T {
		pre = pre[:T]
	} else {
		pre = make([]any, T)
	}
	pre[0] = wa.EmptyWings()
	for i := 0; i+1 < T; i++ {
		pre[i+1] = wa.AddWing(pre[i], row[i])
	}
	suf := wa.EmptyWings()
	for t := T - 1; t >= 0; t-- {
		out[t] = wa.MergeWings(pre[t], suf)
		if t > 0 {
			old := suf
			suf = wa.AddWing(suf, row[t])
			if rec != nil {
				rec.RecycleWings(old)
			}
		}
	}
	if rec != nil {
		rec.RecycleWings(suf)
		for _, a := range pre {
			rec.RecycleWings(a)
		}
	}
	for i := range pre {
		pre[i] = nil
	}
	return out
}

// Lifeguard is implemented by a butterfly analysis. The driver guarantees:
// FirstPass runs exactly once per block, in epoch order, after the SOS for
// the block's epoch is final; SecondPass runs after FirstPass has completed
// for every block of epochs l−1, l, l+1; UpdateSOS runs on a single
// goroutine. Within one epoch, FirstPass (and SecondPass) calls for
// different threads may run concurrently, so they must not share mutable
// state beyond the lifeguard's read-only configuration.
type Lifeguard interface {
	// Name identifies the lifeguard in reports and tooling.
	Name() string

	// BottomState returns the initial SOS (SOS₀ = SOS₁ = ⊥).
	BottomState() State

	// FirstPass analyzes block b locally and returns its summary.
	FirstPass(b *epoch.Block, ctx PassContext) (Summary, []Report)

	// SecondPass re-analyzes block b with the wing summaries and performs
	// the lifeguard's checks. wings holds the summaries of blocks
	// (l−1..l+1, t' ≠ t), clipped at the grid edges.
	SecondPass(b *epoch.Block, ctx PassContext, wings []Summary) []Report

	// UpdateSOS computes SOS_{l+2} = GENₗ ∪ (SOS_{l+1} − KILLₗ), where the
	// epoch summary GENₗ/KILLₗ spans the block summaries of epochs l−1
	// (prevEpoch, nil when l == 0) and l (curEpoch), per §5.1.1/§5.2.
	UpdateSOS(prev State, prevEpoch, curEpoch []Summary) State
}

// Driver schedules a lifeguard over a grid (Run) or an incremental stream
// of epoch rows (RunStream). The same configuration applies to both modes.
type Driver struct {
	// LG is the lifeguard to run.
	LG Lifeguard
	// Parallel runs each pass with one goroutine per thread, separated by
	// barriers (the paper's lifeguard threads). When false everything runs
	// on the calling goroutine, which is deterministic and simpler to debug.
	Parallel bool
	// Shards partitions the lifeguard's address-indexed state into this many
	// disjoint address shards and runs every pass and SOS update as
	// independent per-shard tasks (DESIGN.md §11). Takes effect only when
	// the lifeguard implements ShardedLifeguard and K > 1; results are
	// byte-identical to an unsharded run for every K. Shard tasks run in
	// parallel only when Parallel is also set — Shards alone changes the
	// state layout, not the scheduling, which is useful for deterministic
	// debugging of the sharded representation.
	Shards int
	// KeepHistory retains every epoch's summaries and SOS in the Result for
	// inspection by tests and the experiment harness. Long runs should leave
	// it false: the driver then retains only the sliding window.
	KeepHistory bool
	// Obs, when non-nil, receives run telemetry: per-stage latency
	// histograms, epoch/event/report counters, window and SOS sizes
	// (metric names in internal/obs, semantics in DESIGN.md §9). Nil keeps
	// the hot paths free of instrumentation cost; instrumented and
	// uninstrumented runs produce identical Results.
	Obs *obs.Registry
	// Trace, when non-nil, records one span per (epoch, thread, stage) for
	// Chrome trace-event export (obs.TraceRecorder.WriteJSON), making the
	// pipelined F(l)/S(l−1)/SOS overlap visible in Perfetto.
	Trace *obs.TraceRecorder
}

// Result is the outcome of a Driver.Run.
type Result struct {
	// Reports holds all reports in (epoch, pass, thread, instruction) order.
	Reports []Report
	// Epochs and Events count the analyzed work.
	Epochs, Events int
	// FinalSOS is the SOS after the last epoch's update.
	FinalSOS State
	// Summaries[l][t] and SOSHistory[l] are retained when KeepHistory is
	// set; SOSHistory[l] is SOSₗ.
	Summaries  [][]Summary
	SOSHistory []State
}

// Run executes the two-pass butterfly algorithm over the whole grid.
func (d *Driver) Run(g *epoch.Grid) *Result {
	L := g.NumEpochs()
	T := g.NumThreads
	res := &Result{Epochs: L, Events: g.TotalEvents()}
	if L == 0 || T == 0 {
		res.FinalSOS = d.LG.BottomState()
		return res
	}

	// Sliding window of summaries: sum[l] for the last few epochs. When the
	// lifeguard aggregates wings, aggRows[l][t] is the fold of epoch l's
	// summaries excluding thread t, maintained over the same window.
	sums := make([][]Summary, L)
	m := d.metrics(T)
	sh := d.newSharding(m)
	wa, _ := d.LG.(WingAggregator)
	var aggRows [][]any
	var aggPre []any
	if wa != nil {
		aggRows = make([][]any, L)
		aggPre = make([]any, T)
	}
	// Recycling hooks (recycle.go): only without KeepHistory — history
	// aliases the live summaries and SOS generations.
	var sumRec SummaryRecycler
	var stateRec StateRecycler
	var wingRec WingRecycler
	if !d.KeepHistory {
		sumRec, _ = d.LG.(SummaryRecycler)
		stateRec, _ = d.LG.(StateRecycler)
		if wa != nil {
			wingRec, _ = d.LG.(WingRecycler)
		}
	}
	sos := make([]State, L+2)
	sos[0] = d.bottomState(sh)
	if L+2 > 1 {
		sos[1] = d.bottomState(sh)
	}

	sumAt := func(l int) []Summary {
		if l < 0 || l >= L {
			return nil
		}
		return sums[l]
	}
	aggAt := func(l int) []any {
		if wa == nil || l < 0 || l >= L {
			return nil
		}
		return aggRows[l]
	}

	firstPass := func(l int) {
		ctx := PassContext{SOS: sos[l], Epoch1Back: sumAt(l - 1), Epoch2Back: sumAt(l - 2), Sharding: sh}
		out := make([]Summary, T)
		reports := make([][]Report, T)
		run := func(t int) {
			start := m.now()
			c := ctx
			if c.Epoch1Back != nil {
				c.Head = c.Epoch1Back[t]
			}
			out[t], reports[t] = d.LG.FirstPass(g.Block(l, trace.ThreadID(t)), c)
			m.stageDone(stageFirstPass, l, tidWorker(t), start)
		}
		d.forEachThread(T, run)
		sums[l] = out
		if wa != nil {
			aggRows[l] = exclAggRow(wa, out, nil, aggPre, wingRec)
			m.wingFolded(T)
		}
		for t := 0; t < T; t++ {
			res.Reports = append(res.Reports, reports[t]...)
			m.countReports(reports[t])
		}
	}

	secondPass := func(l int) {
		ctx := PassContext{SOS: sos[l], Epoch1Back: sumAt(l - 1), Epoch2Back: sumAt(l - 2), Sharding: sh}
		aggs := [3][]any{aggAt(l - 1), aggAt(l), aggAt(l + 1)}
		reports := make([][]Report, T)
		run := func(t int) {
			start := m.now()
			c := ctx
			if c.Epoch1Back != nil {
				c.Head = c.Epoch1Back[t]
			}
			c.Own = sums[l][t]
			for k, row := range aggs {
				if row != nil {
					c.WingAggs[k] = row[t]
				}
			}
			var wings []Summary
			for le := l - 1; le <= l+1; le++ {
				row := sumAt(le)
				if row == nil {
					continue
				}
				for tt, s := range row {
					if tt != t {
						wings = append(wings, s)
					}
				}
			}
			reports[t] = d.LG.SecondPass(g.Block(l, trace.ThreadID(t)), c, wings)
			m.stageDone(stageSecondPass, l, tidWorker(t), start)
		}
		d.forEachThread(T, run)
		for t := 0; t < T; t++ {
			res.Reports = append(res.Reports, reports[t]...)
			m.countReports(reports[t])
		}
	}

	for l := 0; l < L; l++ {
		if l >= 2 {
			// SOSₗ = GEN_{l−2} ∪ (SOS_{l−1} − KILL_{l−2}).
			start := m.now()
			sos[l] = d.updateSOS(sh, sos[l-1], sumAt(l-3), sumAt(l-2))
			m.stageDone(stageSOSUpdate, l, tidDriver, start)
			m.sosUpdated(sos[l])
		}
		firstPass(l)
		if l >= 1 {
			secondPass(l - 1)
		}
		if m != nil {
			ev := 0
			for t := 0; t < T; t++ {
				ev += g.Block(l, trace.ThreadID(t)).Len()
			}
			m.epochDone(ev, T)
		}
		if l >= 4 {
			// Epoch l−4 can no longer be referenced by any pass or update.
			if !d.KeepHistory {
				if sumRec != nil {
					for _, s := range sums[l-4] {
						if s != nil {
							sumRec.RecycleSummary(s)
						}
					}
				}
				sums[l-4] = nil
			}
			if wa != nil {
				if wingRec != nil {
					for _, a := range aggRows[l-4] {
						if a != nil {
							wingRec.RecycleWings(a)
						}
					}
				}
				aggRows[l-4] = nil
			}
		}
		if stateRec != nil && l >= 2 {
			// SOS_{l−2} was last read by the previous iteration's passes.
			stateRec.RecycleState(sos[l-2])
			sos[l-2] = nil
		}
	}
	secondPass(L - 1)
	// Final SOS updates for the epochs past the end.
	for l := L; l < L+2; l++ {
		if l >= 2 {
			start := m.now()
			sos[l] = d.updateSOS(sh, sos[l-1], sumAt(l-3), sumAt(l-2))
			m.stageDone(stageSOSUpdate, l, tidDriver, start)
			m.sosUpdated(sos[l])
		}
	}
	// All SOS generations before the merged final one are dead now; sos[L+1]
	// itself is NOT recycled — mergeSOS may retain it as the FinalSOS. The
	// window's remaining summary rows and wing folds are dead too.
	if stateRec != nil {
		for l := L - 2; l <= L; l++ {
			if l >= 0 && sos[l] != nil {
				stateRec.RecycleState(sos[l])
				sos[l] = nil
			}
		}
	}
	for l := max(0, L-4); l < L; l++ {
		if sumRec != nil {
			for _, s := range sums[l] {
				if s != nil {
					sumRec.RecycleSummary(s)
				}
			}
			sums[l] = nil
		}
		if wingRec != nil {
			for _, a := range aggRows[l] {
				if a != nil {
					wingRec.RecycleWings(a)
				}
			}
			aggRows[l] = nil
		}
	}
	// FinalSOS is always the canonical unsharded representation so results
	// compare equal across shard counts; SOSHistory (below) keeps the raw
	// per-epoch states, sharded in sharded runs.
	res.FinalSOS = d.mergeSOS(sh, sos[L+1])
	if d.KeepHistory {
		res.Summaries = sums
		res.SOSHistory = sos
	}
	return res
}

// forEachThread runs fn(t) for every thread, in parallel when configured.
// This is the per-pass barrier: it returns only when all threads finish.
func (d *Driver) forEachThread(T int, fn func(t int)) {
	if !d.Parallel || T == 1 {
		for t := 0; t < T; t++ {
			fn(t)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(T)
	for t := 0; t < T; t++ {
		go func(t int) {
			defer wg.Done()
			fn(t)
		}(t)
	}
	wg.Wait()
}
