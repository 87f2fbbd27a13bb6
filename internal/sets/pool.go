package sets

// Memory pooling for the interval kernels (DESIGN.md §12). The butterfly
// drivers run a steady-state epoch loop: every tick builds and discards the
// same transient sets (LSOS chains, epoch GEN/KILL spans, wing folds). Pools
// let that loop run allocation-free once warm:
//
//   - GetSet/PutSet recycle whole *IntervalSet values. PutSet restores the
//     canonical empty form, so a recycled set is indistinguishable from a
//     fresh one (the reflect.DeepEqual guarantees of interval.go survive
//     pooling).
//
//   - getBacking/putBacking recycle the heap []Interval arrays behind large
//     sets and the scratch slices of the linear merge/subtract kernels.
//     sync.Pool cannot hold a bare slice without boxing it on every Put (an
//     allocation, exactly what the pool exists to avoid), so slices travel
//     inside reusable *ivSlice boxes that cycle between two pools: boxes
//     carrying a slice sit in backingPools, empty boxes in boxPool. Boxes
//     are allocated only when both pools are cold. Backings are pooled by
//     size class: a request of up to smallBacking intervals is never served
//     an SOS-sized array, which a long-lived block-level set (a summary, a
//     wing fold) would otherwise hold for the whole butterfly window while
//     every SOS-sized request allocated afresh. Fresh backings get 25%
//     headroom so that growing sets keep fitting pooled ones.
//
// Ownership discipline: a slice handed to putBacking must have no other
// referent — the caller transfers ownership. Inline (small-array) backings
// are never pooled; putBacking filters them by capacity, since an inline
// backing's capacity is always exactly smallIvs.

import "sync"

// ivSlice is the reusable box that carries a pooled []Interval.
type ivSlice struct{ s []Interval }

var (
	boxPool      sync.Pool    // empty *ivSlice boxes
	backingPools [2]sync.Pool // *ivSlice boxes carrying a released slice, by backingClass
	setPool      sync.Pool    // empty *IntervalSet values
)

// smallBacking is the largest capacity, in intervals, of the small size
// class.
const smallBacking = 1024

func backingClass(n int) int {
	if n > smallBacking {
		return 1
	}
	return 0
}

// getBacking returns a zero-length []Interval with capacity at least min,
// reusing a pooled backing of min's size class when one fits.
func getBacking(min int) []Interval {
	if b, _ := backingPools[backingClass(min)].Get().(*ivSlice); b != nil {
		s := b.s
		b.s = nil
		boxPool.Put(b)
		if cap(s) >= min {
			return s[:0]
		}
	}
	if min < 8 {
		min = 8
	}
	// Headroom: sets grow (an SOS by a block's worth per epoch), and an
	// exact fit would miss the pool on every later, slightly larger copy.
	return make([]Interval, 0, min+min/4)
}

// poisonAddr fills released backings in race builds: a live aliased reader
// of a recycled slice sees this implausible address instead of silently
// stale intervals.
const poisonAddr = 0xdead_dead_dead_dead

// putBacking releases a heap backing to the pool. Inline backings (capacity
// smallIvs or less) and nil slices are ignored.
func putBacking(s []Interval) {
	if cap(s) <= smallIvs {
		return
	}
	if raceEnabled {
		p := s[:cap(s)]
		for i := range p {
			p[i] = Interval{Lo: poisonAddr, Hi: poisonAddr}
		}
	}
	b, _ := boxPool.Get().(*ivSlice)
	if b == nil {
		b = new(ivSlice)
	}
	b.s = s[:0]
	backingPools[backingClass(cap(s))].Put(b)
}

// mapPool recycles fact-set maps. A Set is pointer-shaped, so Get/Put do not
// box; pooled maps keep their bucket arrays, amortizing growth across the
// epoch loop.
var mapPool sync.Pool

// GetMap returns an empty fact Set from the pool. Pair with PutMap.
func GetMap() Set {
	if s, _ := mapPool.Get().(Set); s != nil {
		return s
	}
	return NewSet()
}

// PutMap clears s and recycles it. The caller must be the sole referent;
// passing nil is a no-op.
func PutMap(s Set) {
	if s == nil {
		return
	}
	s.Clear()
	mapPool.Put(s)
}

// GetSet returns an empty IntervalSet from the pool, in canonical form. It
// is the allocation-free counterpart of NewIntervalSet() for transient sets;
// pair it with PutSet when the set dies.
func GetSet() *IntervalSet {
	if s, _ := setPool.Get().(*IntervalSet); s != nil {
		return s
	}
	return &IntervalSet{}
}

// PutSet resets s to the canonical empty form (releasing any heap backing to
// the pool) and recycles it. The caller must be the sole referent; passing
// nil is a no-op.
func PutSet(s *IntervalSet) {
	if s == nil {
		return
	}
	s.Reset()
	setPool.Put(s)
}
