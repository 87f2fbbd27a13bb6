package lockset

import (
	"sync"

	"butterfly/internal/core"
)

// Pooled storage (DESIGN.md §12). Summaries, SOS generations and pass
// scratch are recycled whole: a piece keeps its location list and arena
// across uses, so the steady-state epoch loop appends into warm storage and
// allocates nothing. UpdateSOS builds every generation into storage of its
// own — nothing is shared between generations — so a retired SOS goes back
// to the pool while its successor is live. Values are emptied on release,
// so a reader holding one past its release finds it empty until reuse.

var (
	summaryPool sync.Pool
	statePool   sync.Pool
	scratchPool sync.Pool
)

// getSummary returns an empty summary of K pieces.
//
// Pieces are born with empty, non-nil slices and only ever resliced or
// appended to, so a value built into recycled storage compares equal
// (reflect.DeepEqual) to a freshly built one.
func getSummary(K int) *Summary {
	s, _ := summaryPool.Get().(*Summary)
	if s == nil || cap(s.pieces) < K {
		s = &Summary{pieces: make([]piece, K)}
		for k := range s.pieces {
			s.pieces[k] = piece{held: []uint64{}, locs: []loc{}, arena: []uint64{}}
		}
	}
	s.pieces = s.pieces[:K]
	return s
}

// getState returns an empty SOS of K pieces.
func getState(K int) *state {
	s, _ := statePool.Get().(*state)
	if s == nil || cap(s.pieces) < K {
		s = &state{pieces: make([]sosPiece, K)}
		for k := range s.pieces {
			s.pieces[k] = sosPiece{cands: []cand{}, arena: []uint64{}}
		}
	}
	s.pieces = s.pieces[:K]
	return s
}

// pieceScratch is one piece's working storage for a second pass or SOS
// update.
type pieceScratch struct {
	wings []*piece // the wings' pieces for this shard
	cur   []int    // per-wing merge cursors
	hit   []int    // wings holding the current location
	races []race
	thr   []uint64 // thread lists of races
	refs  []ref
}

// scratch is a pass's working storage: one pieceScratch per shard.
type scratch struct {
	pieces []pieceScratch
	all    []race
}

func getScratch(K int) *scratch {
	s, _ := scratchPool.Get().(*scratch)
	if s == nil || cap(s.pieces) < K {
		s = &scratch{pieces: make([]pieceScratch, K)}
	}
	s.pieces = s.pieces[:K]
	return s
}

var (
	_ core.SummaryRecycler = (*Butterfly)(nil)
	_ core.StateRecycler   = (*Butterfly)(nil)
)

// RecycleSummary implements core.SummaryRecycler.
func (l *Butterfly) RecycleSummary(s core.Summary) {
	if v, _ := s.(*Summary); v != nil {
		for k, p := range v.pieces {
			v.pieces[k] = piece{held: p.held[:0], locs: p.locs[:0], arena: p.arena[:0]}
		}
		summaryPool.Put(v)
	}
}

// RecycleState implements core.StateRecycler.
func (l *Butterfly) RecycleState(s core.State) {
	if v, _ := s.(*state); v != nil {
		for k, p := range v.pieces {
			v.pieces[k] = sosPiece{cands: p.cands[:0], arena: p.arena[:0]}
		}
		statePool.Put(v)
	}
}
