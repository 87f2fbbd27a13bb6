package core_test

// The steady-state allocation gate (ISSUE: zero-allocation steady state).
// After the sliding window fills and the pools warm up, feeding one more
// epoch through the serial incremental driver must cost at most a small
// fixed number of heap allocations, independent of how long the run has
// been going. This is the property that keeps GC pauses off the
// monitoring path; `make bench-alloc` enforces the same budget on the
// full client/server stack via -benchmem.

import (
	"math/rand"
	"runtime"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/lifeguard/lockset"
	"butterfly/internal/lifeguard/memcheck"
	"butterfly/internal/trace"
)

// steadyAllocBudget is the per-epoch heap-allocation budget once warm.
// Measured ~0-2 on the serial driver (pool misses on rare interval-set
// growth); the headroom keeps the gate from flaking on GC bookkeeping,
// while still catching any reintroduced per-epoch allocation (a single
// make per epoch shows up as +1 and a per-block one as +T).
const steadyAllocBudget = 8

// steadyGrid builds a report-free AddrCheck workload: every thread
// allocates its slots up front, then reads and writes only allocated
// memory, with occasional free/realloc churn so interval kernels do real
// work. No reports means the gate measures the driver, not report
// formatting. With define set, every allocation is followed by a write of
// the whole slot, so no read sees undefined memory and the grid is clean
// for MemCheck too.
func steadyGrid(tb testing.TB, nthreads, perThread int, define bool) *epoch.Grid {
	tb.Helper()
	b := trace.NewBuilder(nthreads)
	const (
		heapBase = 0x10000
		slots    = 32
		slotSize = 64
	)
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		rng := rand.New(rand.NewSource(int64(t + 1)))
		base := uint64(heapBase + t*slots*slotSize)
		own := func() uint64 { return base + uint64(rng.Intn(slots))*slotSize }
		alloc := func(s uint64) {
			b.Alloc(s, slotSize)
			if define {
				b.Write(s, slotSize)
			}
		}
		for s := 0; s < slots; s++ {
			alloc(base + uint64(s)*slotSize)
		}
		for i := slots; i < perThread; i++ {
			switch rng.Intn(32) {
			case 0:
				s := own()
				b.Free(s, slotSize)
				alloc(s)
				i++
			case 1, 2, 3, 4, 5, 6, 7, 8, 9:
				b.Write(own(), uint64(1+rng.Intn(slotSize)))
			default:
				b.Read(own(), uint64(1+rng.Intn(slotSize)))
			}
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), 64)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// lockGrid builds LockSet traffic: threads update 64 shared words, each
// under the lock that guards it, in epochs of h events per thread. With
// stray > 0, one update in stray is an unprotected write instead; with
// stray = 0 every candidate lockset keeps its lock and nothing races.
func lockGrid(tb testing.TB, nthreads, perThread, h, stray int) *epoch.Grid {
	tb.Helper()
	b := trace.NewBuilder(nthreads)
	const (
		shared = 0x10000
		vars   = 64
		locks  = 8
	)
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		rng := rand.New(rand.NewSource(int64(t + 1)))
		for n := 0; n < perThread; {
			v := uint64(rng.Intn(vars))
			if stray > 0 && rng.Intn(stray) == 0 {
				b.Write(shared+v*8, 8)
				n++
				continue
			}
			b.Lock(v%locks).Read(shared+v*8, 8).Write(shared+v*8, 8).Unlock(v % locks)
			n += 4
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), h)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestSteadyStateAllocBudget runs the gate once per lifeguard, each on a
// clean workload suited to it, in the serial unsharded shape.
func TestSteadyStateAllocBudget(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race detector instruments allocations; counts are not meaningful")
	}
	for _, tc := range []struct {
		name string
		lg   core.Lifeguard
		grid func(tb testing.TB, nthreads, perThread int) *epoch.Grid
	}{
		{"addrcheck", addrcheck.New(0), func(tb testing.TB, nthreads, perThread int) *epoch.Grid {
			return steadyGrid(tb, nthreads, perThread, false)
		}},
		{"memcheck", memcheck.New(0), func(tb testing.TB, nthreads, perThread int) *epoch.Grid {
			return steadyGrid(tb, nthreads, perThread, true)
		}},
		{"lockset", lockset.New(), func(tb testing.TB, nthreads, perThread int) *epoch.Grid {
			return lockGrid(tb, nthreads, perThread, 64, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const T = 4
			g := tc.grid(t, T, 8192) // 128 epochs of 64 events/thread
			checkSteadyAllocs(t, &core.Driver{LG: tc.lg}, g)
		})
	}
}

func checkSteadyAllocs(t *testing.T, d *core.Driver, g *epoch.Grid) {
	T := g.NumThreads
	inc, err := d.NewIncrementalTrimmed(T)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()

	// Feed through the same pooled-row path the server uses: decode-style
	// copy into recycled backings, stamp, feed, and let the driver hand
	// rows back to the pool as the window slides.
	var pool epoch.RowPool
	rb := epoch.NewRowBuilder(T)
	inc.SetRowRecycler(pool.Put)
	feed := func(l int) {
		blocks := pool.Get(T)
		for t2, b := range blocks {
			b.Events = append(b.Events[:0], g.Blocks[l][t2].Events...)
		}
		rb.Stamp(blocks)
		reports, err := inc.FeedEpoch(blocks)
		if err != nil {
			t.Fatalf("epoch %d: %v", l, err)
		}
		if len(reports) != 0 {
			t.Fatalf("epoch %d: %d reports on a clean workload, first %v", l, len(reports), reports[0])
		}
	}

	const warm = 32
	if g.NumEpochs() < warm+16 {
		t.Fatalf("grid too short: %d epochs", g.NumEpochs())
	}
	for l := 0; l < warm; l++ {
		feed(l)
	}
	measured := g.NumEpochs() - warm
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for l := warm; l < g.NumEpochs(); l++ {
		feed(l)
	}
	runtime.ReadMemStats(&after)
	perEpoch := float64(after.Mallocs-before.Mallocs) / float64(measured)
	t.Logf("steady state: %.2f allocs/epoch over %d epochs (budget %d)",
		perEpoch, measured, steadyAllocBudget)
	if perEpoch > steadyAllocBudget {
		t.Fatalf("steady-state allocations regressed: %.2f allocs/epoch exceeds budget %d",
			perEpoch, steadyAllocBudget)
	}
}
