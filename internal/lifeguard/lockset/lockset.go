// Package lockset implements a lockset-based data-race detector in the
// Eraser style (the paper cites Eraser [34] as a canonical lifeguard, and
// §5 names race detectors among the generate/propagate analyses butterfly
// analysis covers). Per memory location the detector maintains a *candidate
// lockset* C(v): the intersection of the locks held at every access to v.
// If C(v) becomes empty while v has been accessed by more than one thread
// with at least one write, no single lock protects v — a potential race.
//
// The semantics implemented (by both the butterfly version and the oracle)
// is the simplified discipline: C(v) ∩= locks-held at every access; flag an
// access when the intersection so far is empty, at least two distinct
// threads have accessed v, and at least one access was a write.
//
// Lockset refinement is pure intersection — commutative and associative —
// which makes it a perfect fit for butterfly analysis: the per-epoch merge
// is order-insensitive, so the only uncertainty left is *which* accesses
// are visible, and including more (the whole wings) is conservative. The
// held-lock set itself is intra-thread state, threaded exactly from block
// to block through the head's summary (the driver guarantees the head's
// first pass completes first).
//
// Representation (DESIGN.md §11–§12). A lockset is a sorted []uint64 of lock
// ids and a thread set a sorted list of thread ids; both are spans of one
// []uint64 arena owned by the summary or SOS piece that holds them, so a
// pass appends into storage recycled with its piece and allocates nothing
// per location. No stored set is ever the universe: a location's candidate
// starts as the universe and its first access narrows it, so "no record" is
// how the universe is spelled. Every summary and SOS is split into pieces by
// address shard (sets.ShardOf of the byte address); an unsharded run is the
// one-piece case, K = 1, of the same per-piece passes.
package lockset

import (
	"cmp"
	"fmt"
	"slices"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/sets"
	"butterfly/internal/trace"
)

// CodeRace flags an access to a location with an empty candidate lockset.
const CodeRace = "lockset.potential-data-race"

// Butterfly is the butterfly-analysis lockset race detector.
type Butterfly struct{}

var (
	_ core.Lifeguard        = (*Butterfly)(nil)
	_ core.ShardedLifeguard = (*Butterfly)(nil)
)

// New returns a lockset race detector.
func New() *Butterfly { return &Butterfly{} }

// Name implements core.Lifeguard.
func (l *Butterfly) Name() string { return "lockset" }

// loc summarizes one block's accesses to one byte location.
type loc struct {
	addr   uint64
	first  int32  // index of the block's first access to addr
	off, n uint32 // arena[off:off+n]: the locks held at every access
	write  bool
}

// piece is one address shard of a block summary.
type piece struct {
	thread trace.ThreadID
	// held is the held-lock set at block exit, threaded to the next block.
	// Every piece replays the block's Lock/Unlock events, so all pieces
	// carry the same set and no two shard tasks share mutable state.
	held  []uint64
	locs  []loc // sorted by addr
	arena []uint64
}

// Summary is the lockset first-pass block summary: one piece per shard.
type Summary struct{ pieces []piece }

// cand is one location's strongly ordered candidate state: arena[off:off+n]
// is the candidate lockset and arena[off+n:off+n+nt] the ids of the threads
// that accessed the location, ascending.
type cand struct {
	addr       uint64
	off, n, nt uint32
	write      bool
}

// sosPiece is one address shard of the SOS.
type sosPiece struct {
	cands []cand // sorted by addr
	arena []uint64
}

func (p *sosPiece) locks(c *cand) []uint64 { return p.arena[c.off : c.off+c.n] }

func (p *sosPiece) threads(c *cand) []uint64 { return p.arena[c.off+c.n : c.off+c.n+c.nt] }

// state is the SOS: one piece per shard.
type state struct{ pieces []sosPiece }

// BottomState implements core.Lifeguard.
func (l *Butterfly) BottomState() core.State { return getState(1) }

// StateSize implements core.StateSizer: the number of locations with a
// tracked candidate lockset.
func (l *Butterfly) StateSize(s core.State) int {
	n := 0
	for _, p := range s.(*state).pieces {
		n += len(p.cands)
	}
	return n
}

// CanShard implements core.ShardedLifeguard.
func (l *Butterfly) CanShard() bool { return true }

// BottomStateSharded implements core.ShardedLifeguard.
func (l *Butterfly) BottomStateSharded(sh *core.Sharding) core.State { return getState(sh.K()) }

func shards(sh *core.Sharding) int {
	if sh == nil {
		return 1
	}
	return sh.K()
}

// FirstPass implements core.Lifeguard: thread the held-lock set through the
// block and summarize per-location lock disciplines.
func (l *Butterfly) FirstPass(b *epoch.Block, ctx core.PassContext) (core.Summary, []core.Report) {
	sh := ctx.Sharding
	s := getSummary(shards(sh))
	head, _ := ctx.Head.(*Summary)
	if sh == nil {
		s.pieces[0].build(b, head, 0, 1)
	} else {
		sh.Do(func(k int) { s.pieces[k].build(b, head, k, sh.K()) })
	}
	return s, nil
}

// build summarizes b's accesses to the locations of shard k of K.
func (p *piece) build(b *epoch.Block, head *Summary, k, K int) {
	p.thread = b.Thread
	held := p.held[:0]
	if head != nil {
		held = append(held, head.pieces[k].held...)
	}
	// Every access appends one record per byte, pointing at a snapshot of
	// the held set taken once per lock-set change; sorting by (addr, first)
	// then folds each location's records into one.
	snap := -1
	for i, e := range b.Events {
		switch e.Kind {
		case trace.Lock:
			if j, ok := slices.BinarySearch(held, e.Addr); !ok {
				held = slices.Insert(held, j, e.Addr)
				snap = -1
			}
		case trace.Unlock:
			if j, ok := slices.BinarySearch(held, e.Addr); ok {
				held = slices.Delete(held, j, j+1)
				snap = -1
			}
		case trace.Read, trace.Write:
			for a := e.Lo(); a < e.Hi(); a++ {
				if sets.ShardOf(a, K) != k {
					continue
				}
				if snap < 0 {
					snap = len(p.arena)
					p.arena = append(p.arena, held...)
				}
				p.locs = append(p.locs, loc{addr: a, first: int32(i),
					off: uint32(snap), n: uint32(len(held)), write: e.Kind == trace.Write})
			}
		}
	}
	p.held = held
	slices.SortFunc(p.locs, func(x, y loc) int {
		if c := cmp.Compare(x.addr, y.addr); c != 0 {
			return c
		}
		return cmp.Compare(x.first, y.first)
	})
	out := p.locs[:0]
	for _, r := range p.locs {
		n := len(out)
		if n == 0 || out[n-1].addr != r.addr {
			out = append(out, r)
			continue
		}
		last := &out[n-1]
		last.write = last.write || r.write
		// Snapshots are shared, so a narrowed set is written afresh; an
		// unchanged one is dropped again.
		off := len(p.arena)
		p.arena = appendIntersect(p.arena, p.arena[last.off:last.off+last.n], p.arena[r.off:r.off+r.n])
		if uint32(len(p.arena)-off) == last.n {
			p.arena = p.arena[:off]
		} else {
			last.off, last.n = uint32(off), uint32(len(p.arena)-off)
		}
	}
	p.locs = out
}

// SecondPass implements core.Lifeguard: check each access against the
// candidate refined by the strongly ordered past and every wing access.
//
// The predicate is constant per location within a block. Own(a), the
// intersection of the locks held at the block's accesses to a, is a subset
// of the held set at each of them, so held ∩ SOS(a) ∩ wings(a) ∩ own(a) is
// SOS(a) ∩ wings(a) ∩ own(a), and the write bit and thread set do not
// depend on the access either. A racing location is therefore reported at
// the block's first access to it, and each piece decides its locations by
// walking own(a) against the SOS and wing records met in one merge over
// the sorted location lists; no intersection is materialized.
func (l *Butterfly) SecondPass(b *epoch.Block, ctx core.PassContext, wings []core.Summary) []core.Report {
	sh := ctx.Sharding
	sc := getScratch(shards(sh))
	defer scratchPool.Put(sc)
	own, sos := ctx.Own.(*Summary), ctx.SOS.(*state)
	if sh == nil {
		sc.pieces[0].check(b.Thread, &own.pieces[0], &sos.pieces[0], wings, 0)
	} else {
		sh.Do(func(k int) { sc.pieces[k].check(b.Thread, &own.pieces[k], &sos.pieces[k], wings, k) })
	}
	return sc.reports(b)
}

// race is one racing location: addr races at its block's event ev, and
// thr[off:off+n] of piece k's scratch lists the threads that touched it.
type race struct {
	ev     int32
	k      int32
	addr   uint64
	off, n uint32
}

// check records the racing locations of piece k in c.races.
func (c *pieceScratch) check(self trace.ThreadID, own *piece, sos *sosPiece, wings []core.Summary, k int) {
	c.races, c.thr = c.races[:0], c.thr[:0]
	c.wings, c.cur = c.wings[:0], c.cur[:0]
	for _, w := range wings {
		c.wings = append(c.wings, &w.(*Summary).pieces[k])
		c.cur = append(c.cur, 0)
	}
	j := 0 // SOS cursor
	for _, o := range own.locs {
		a := o.addr
		d, found := slices.BinarySearchFunc(sos.cands[j:], a, func(x cand, t uint64) int { return cmp.Compare(x.addr, t) })
		j += d
		var sc *cand
		write, multi := o.write, false
		if found {
			sc = &sos.cands[j]
			write = write || sc.write
			ts := sos.threads(sc)
			multi = len(ts) > 1 || ts[0] != uint64(self)
		}
		c.hit = c.hit[:0]
		for w, wp := range c.wings {
			i := c.cur[w]
			for i < len(wp.locs) && wp.locs[i].addr < a {
				i++
			}
			c.cur[w] = i
			if i < len(wp.locs) && wp.locs[i].addr == a {
				c.hit = append(c.hit, w)
				write = write || wp.locs[i].write
				multi = true // wings are other threads' blocks
			}
		}
		if !write || !multi || c.protected(own.arena[o.off:o.off+o.n], sos, sc) {
			continue
		}
		off := len(c.thr)
		c.thr = append(c.thr, uint64(self))
		if sc != nil {
			c.thr = append(c.thr, sos.threads(sc)...)
		}
		for _, w := range c.hit {
			c.thr = append(c.thr, uint64(c.wings[w].thread))
		}
		slices.Sort(c.thr[off:])
		c.thr = c.thr[:off+len(slices.Compact(c.thr[off:]))]
		c.races = append(c.races, race{ev: o.first, k: int32(k), addr: a,
			off: uint32(off), n: uint32(len(c.thr) - off)})
	}
}

// protected reports whether some lock of own survives in the SOS candidate
// sc (nil: the universe) and in every wing record c.hit names.
func (c *pieceScratch) protected(own []uint64, sos *sosPiece, sc *cand) bool {
next:
	for _, x := range own {
		if sc != nil {
			if _, ok := slices.BinarySearch(sos.locks(sc), x); !ok {
				continue
			}
		}
		for _, w := range c.hit {
			wp := c.wings[w]
			r := &wp.locs[c.cur[w]]
			if _, ok := slices.BinarySearch(wp.arena[r.off:r.off+r.n], x); !ok {
				continue next
			}
		}
		return true
	}
	return false
}

// reports merges the pieces' racing locations into the serial report
// sequence: one report per access event, in event order, covering
// [lowest racing byte, highest racing byte] of that event with the thread
// set of its lowest racing byte.
func (s *scratch) reports(b *epoch.Block) []core.Report {
	all := s.all[:0]
	for k := range s.pieces {
		all = append(all, s.pieces[k].races...)
	}
	s.all = all
	if len(all) == 0 {
		return nil
	}
	slices.SortFunc(all, func(x, y race) int {
		if c := cmp.Compare(x.ev, y.ev); c != 0 {
			return c
		}
		return cmp.Compare(x.addr, y.addr)
	})
	var reports []core.Report
	for i := 0; i < len(all); {
		lo, hi := all[i], all[i].addr
		for i++; i < len(all) && all[i].ev == lo.ev; i++ {
			hi = all[i].addr
		}
		reports = append(reports, core.Report{
			Ref: b.Ref(int(lo.ev)), Ev: b.Events[lo.ev], Code: CodeRace,
			Detail: fmt.Sprintf("no common lock protects [%#x,%#x) (threads: %v)",
				lo.addr, hi+1, s.pieces[lo.k].thr[lo.off:lo.off+lo.n]),
		})
	}
	return reports
}

// UpdateSOS implements core.Lifeguard: fold the epoch's per-location
// intersections into the candidates. Intersection is order-insensitive, so
// no two-epoch span correction is needed (there is no KILL: candidates only
// shrink).
func (l *Butterfly) UpdateSOS(prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	return l.UpdateSOSSharded(nil, prev, prevEpoch, curEpoch)
}

// UpdateSOSSharded implements core.ShardedLifeguard. The next SOS is built
// into fresh pooled storage: every generation owns its arena, so a retired
// one can be recycled while its successor lives.
func (l *Butterfly) UpdateSOSSharded(sh *core.Sharding, prev core.State, prevEpoch, curEpoch []core.Summary) core.State {
	old, next, sc := prev.(*state), getState(shards(sh)), getScratch(shards(sh))
	defer scratchPool.Put(sc)
	if sh == nil {
		next.pieces[0].update(&old.pieces[0], curEpoch, 0, &sc.pieces[0])
	} else {
		sh.Do(func(k int) { next.pieces[k].update(&old.pieces[k], curEpoch, k, &sc.pieces[k]) })
	}
	return next
}

// ref names the i'th record of piece k of row entry t.
type ref struct {
	addr uint64
	t, i int32
}

// update merges old (sorted) with the row's records for shard k (gathered
// and sorted by address) into p.
func (p *sosPiece) update(old *sosPiece, row []core.Summary, k int, c *pieceScratch) {
	refs := c.refs[:0]
	for t, s := range row {
		if s == nil {
			continue
		}
		for i, o := range s.(*Summary).pieces[k].locs {
			refs = append(refs, ref{addr: o.addr, t: int32(t), i: int32(i)})
		}
	}
	// fold's result does not depend on the order within an address group.
	slices.SortFunc(refs, func(x, y ref) int { return cmp.Compare(x.addr, y.addr) })
	c.refs = refs
	i := 0
	for ci := range old.cands {
		oc := &old.cands[ci]
		for i < len(refs) && refs[i].addr < oc.addr {
			i = p.fold(nil, nil, refs, i, row, k)
		}
		if i < len(refs) && refs[i].addr == oc.addr {
			i = p.fold(old, oc, refs, i, row, k)
			continue
		}
		nc := *oc
		nc.off = uint32(len(p.arena))
		p.arena = append(p.arena, old.arena[oc.off:oc.off+oc.n+oc.nt]...)
		p.cands = append(p.cands, nc)
	}
	for i < len(refs) {
		i = p.fold(nil, nil, refs, i, row, k)
	}
}

// fold appends the candidate for refs[i].addr: old's candidate oc (nil for a
// virgin location) refined by every record of the group refs[i:j] sharing
// that address. It returns j.
func (p *sosPiece) fold(old *sosPiece, oc *cand, refs []ref, i int, row []core.Summary, k int) int {
	a := refs[i].addr
	off := len(p.arena)
	c := cand{addr: a, off: uint32(off)}
	if oc != nil {
		p.arena = append(p.arena, old.locks(oc)...)
		c.write = oc.write
	}
	j := i
	for ; j < len(refs) && refs[j].addr == a; j++ {
		bp := &row[refs[j].t].(*Summary).pieces[k]
		r := &bp.locs[refs[j].i]
		if locks := bp.arena[r.off : r.off+r.n]; oc == nil && j == i {
			p.arena = append(p.arena, locks...)
		} else {
			p.arena = appendIntersect(p.arena[:off], p.arena[off:], locks)
		}
		c.write = c.write || r.write
	}
	c.n = uint32(len(p.arena) - off)
	if oc != nil {
		p.arena = append(p.arena, old.threads(oc)...)
	}
	for _, r := range refs[i:j] {
		p.arena = append(p.arena, uint64(row[r.t].(*Summary).pieces[k].thread))
	}
	ts := p.arena[off+int(c.n):]
	slices.Sort(ts)
	c.nt = uint32(len(slices.Compact(ts)))
	p.arena = p.arena[:off+int(c.n+c.nt)]
	p.cands = append(p.cands, c)
	return j
}

// MergeSOS implements core.ShardedLifeguard: the shards' locations are
// disjoint, so the canonical one-piece state lists them all in address
// order, laid out exactly as a serial UpdateSOS lays them out.
func (l *Butterfly) MergeSOS(s core.State) core.State {
	ss := s.(*state)
	var refs []ref
	for k := range ss.pieces {
		for i, c := range ss.pieces[k].cands {
			refs = append(refs, ref{addr: c.addr, t: int32(k), i: int32(i)})
		}
	}
	slices.SortFunc(refs, func(x, y ref) int { return cmp.Compare(x.addr, y.addr) })
	out := getState(1)
	p := &out.pieces[0]
	for _, r := range refs {
		src := &ss.pieces[r.t]
		c := src.cands[r.i]
		p.arena = append(p.arena, src.arena[c.off:c.off+c.n+c.nt]...)
		c.off = uint32(len(p.arena)) - c.n - c.nt
		p.cands = append(p.cands, c)
	}
	return out
}

// appendIntersect appends a ∩ b (both sorted) to dst. dst may end where a
// starts in the same array: the result then overwrites a in place.
func appendIntersect(dst, a, b []uint64) []uint64 {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i, j = i+1, j+1
		}
	}
	return dst
}
