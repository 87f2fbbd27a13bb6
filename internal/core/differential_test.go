package core_test

// Differential-testing oracle harness (the para-dflow validation pattern):
// randomized traces are driven through every driver mode — batch serial,
// batch parallel, streaming serial, streaming pipelined, and streaming
// pipelined through the wire codec — and all must produce identical
// canonical reports and identical final SOS, for all four lifeguards. The
// oracle is each lifeguard's reference run (references).

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/addrcheck"
	"butterfly/internal/lifeguard/lockset"
	"butterfly/internal/lifeguard/memcheck"
	"butterfly/internal/lifeguard/taintcheck"
	"butterfly/internal/trace"
)

// lifeguards returns fresh instances of every lifeguard under test. The
// constructors run per comparison so no state leaks between drivers.
var lifeguards = map[string]func() core.Lifeguard{
	"addrcheck":  func() core.Lifeguard { return addrcheck.New(0) },
	"memcheck":   func() core.Lifeguard { return memcheck.New(0) },
	"taintcheck": func() core.Lifeguard { return taintcheck.New() },
	"lockset":    func() core.Lifeguard { return lockset.New() },
}

// randomTrace builds a workload exercising every lifeguard at once: a small
// heap with allocation churn, reads and writes (some through unallocated
// memory), taint sources, propagation and critical uses, and locks (held
// correctly and incorrectly). Thread lengths are skewed — some threads may
// be empty — so the grid gets ragged tails and empty blocks.
func randomTrace(rng *rand.Rand, nthreads int) *trace.Trace {
	b := trace.NewBuilder(nthreads)
	const (
		heapBase  = 0x100
		heapSlots = 8
		slotSize  = 8
		locs      = 16 // taint-location space
		locks     = 3
	)
	slot := func() uint64 { return heapBase + uint64(rng.Intn(heapSlots))*slotSize }
	loc := func() uint64 { return uint64(0x40 + rng.Intn(locs)) }
	for t := 0; t < nthreads; t++ {
		b.T(trace.ThreadID(t))
		n := rng.Intn(60)
		if rng.Intn(8) == 0 {
			n = 0 // occasionally an empty thread
		}
		for i := 0; i < n; i++ {
			switch rng.Intn(16) {
			case 0:
				b.Alloc(slot(), slotSize)
			case 1:
				b.Free(slot(), slotSize)
			case 2, 3, 4:
				b.Read(slot(), uint64(1+rng.Intn(slotSize)))
			case 5, 6:
				b.Write(slot(), uint64(1+rng.Intn(slotSize)))
			case 7:
				b.Taint(loc(), uint64(1+rng.Intn(2)))
			case 8:
				b.Untaint(loc())
			case 9, 10:
				b.Unop(loc(), loc())
			case 11:
				b.Binop(loc(), loc(), loc())
			case 12:
				b.Jump(loc())
			case 13:
				b.Lock(uint64(1 + rng.Intn(locks)))
			case 14:
				b.Unlock(uint64(1 + rng.Intn(locks)))
			default:
				b.Nop(1)
			}
		}
	}
	return b.Build()
}

// references gives, per lifeguard, what every suite compares against: the
// naive butterfly transcription next to the lifeguard's sequential oracle
// (no pieces, pools, wing folds or recycling) where one exists, else the
// lifeguard itself, run serial and unsharded.
var references = map[string]func() core.Lifeguard{
	"addrcheck":  func() core.Lifeguard { return addrcheck.NewReference(0) },
	"memcheck":   func() core.Lifeguard { return memcheck.NewReference(0) },
	"taintcheck": func() core.Lifeguard { return taintcheck.New() },
	"lockset":    func() core.Lifeguard { return lockset.New() },
}

// canonReports returns a canonically sorted copy: (epoch, thread, index,
// code, text).
func canonReports(rs []core.Report) []core.Report {
	out := append([]core.Report(nil), rs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Ref.Epoch != b.Ref.Epoch {
			return a.Ref.Epoch < b.Ref.Epoch
		}
		if a.Ref.Thread != b.Ref.Thread {
			return a.Ref.Thread < b.Ref.Thread
		}
		if a.Ref.Index != b.Ref.Index {
			return a.Ref.Index < b.Ref.Index
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Text() < b.Text()
	})
	return out
}

// runStreamOverWire encodes the grid in the streaming trace format and runs
// the driver over the decoded stream, exercising codec, adapter and
// pipeline end to end.
func runStreamOverWire(t *testing.T, d *core.Driver, g *epoch.Grid) *core.Result {
	t.Helper()
	var buf bytes.Buffer
	if err := epoch.WriteStream(&buf, g); err != nil {
		t.Fatal(err)
	}
	sr, err := trace.NewStreamReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.RunStream(epoch.NewStreamRows(sr))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDifferentialDrivers(t *testing.T) {
	type variant struct {
		name string
		run  func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result
	}
	variants := []variant{
		{"batch-serial", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			return (&core.Driver{LG: lg}).Run(g)
		}},
		{"batch-parallel", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			return (&core.Driver{LG: lg, Parallel: true}).Run(g)
		}},
		{"stream-serial", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			res, err := (&core.Driver{LG: lg}).RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"stream-pipelined", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			res, err := (&core.Driver{LG: lg, Parallel: true}).RunStream(epoch.NewGridRows(g))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}},
		{"stream-wire", func(t *testing.T, lg core.Lifeguard, g *epoch.Grid) *core.Result {
			return runStreamOverWire(t, &core.Driver{LG: lg, Parallel: true}, g)
		}},
	}

	for lgName, mk := range lifeguards {
		t.Run(lgName, func(t *testing.T) {
			for seed := int64(0); seed < 12; seed++ {
				rng := rand.New(rand.NewSource(seed))
				nthreads := 1 + rng.Intn(8)
				h := []int{1, 2, 5, 16}[rng.Intn(4)]
				maxSkew := 0
				if h > 1 && rng.Intn(2) == 0 {
					maxSkew = rng.Intn(h)
				}
				tr := randomTrace(rng, nthreads)
				g, err := epoch.ChunkWithSkew(tr, h, maxSkew, seed)
				if err != nil {
					t.Fatal(err)
				}
				cfg := fmt.Sprintf("seed=%d threads=%d h=%d skew=%d epochs=%d events=%d",
					seed, nthreads, h, maxSkew, g.NumEpochs(), g.TotalEvents())

				want := (&core.Driver{LG: references[lgName]()}).Run(g)
				wantReports := canonReports(want.Reports)

				for _, v := range variants {
					got := v.run(t, mk(), g)
					if got.Epochs != want.Epochs || got.Events != want.Events {
						t.Fatalf("%s %s: epochs/events = %d/%d, want %d/%d",
							v.name, cfg, got.Epochs, got.Events, want.Epochs, want.Events)
					}
					if !reflect.DeepEqual(canonReports(got.Reports), wantReports) {
						t.Fatalf("%s %s: reports diverge from the reference\n got: %v\nwant: %v",
							v.name, cfg, canonReports(got.Reports), wantReports)
					}
					if !reflect.DeepEqual(got.FinalSOS, want.FinalSOS) {
						t.Fatalf("%s %s: FinalSOS diverges from the reference\n got: %#v\nwant: %#v",
							v.name, cfg, got.FinalSOS, want.FinalSOS)
					}
				}
			}
		})
	}
}

// TestDifferentialReportOrder pins down the stronger property the drivers
// actually provide: report order — (epoch, pass, thread, instruction) — is
// identical across all modes, not merely the canonical multiset.
func TestDifferentialReportOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := randomTrace(rng, 4)
	g, err := epoch.ChunkByCount(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	for lgName, mk := range lifeguards {
		want := (&core.Driver{LG: references[lgName]()}).Run(g)
		ser := (&core.Driver{LG: mk()}).Run(g)
		par := (&core.Driver{LG: mk(), Parallel: true}).Run(g)
		str, err := (&core.Driver{LG: mk(), Parallel: true}).RunStream(epoch.NewGridRows(g))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ser.Reports, want.Reports) {
			t.Errorf("%s: batch-serial report order differs from the reference", lgName)
		}
		if !reflect.DeepEqual(par.Reports, want.Reports) {
			t.Errorf("%s: batch-parallel report order differs from serial", lgName)
		}
		if !reflect.DeepEqual(str.Reports, want.Reports) {
			t.Errorf("%s: stream report order differs from serial", lgName)
		}
	}
}

// TestStreamEmptyInputs covers the degenerate shapes: zero threads, zero
// epochs, and a single empty epoch.
func TestStreamEmptyInputs(t *testing.T) {
	for lgName, mk := range lifeguards {
		empty := trace.NewBuilder(0).Build()
		g, err := epoch.ChunkByHeartbeat(empty)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&core.Driver{LG: mk(), Parallel: true}).RunStream(epoch.NewGridRows(g))
		if err != nil {
			t.Fatal(err)
		}
		want := (&core.Driver{LG: mk()}).Run(g)
		if !reflect.DeepEqual(res.FinalSOS, want.FinalSOS) || len(res.Reports) != 0 {
			t.Errorf("%s: zero-thread stream: got %d reports, FinalSOS mismatch", lgName, len(res.Reports))
		}

		oneEmpty := trace.NewBuilder(2).Build() // two threads, no events
		g2, err := epoch.ChunkByCount(oneEmpty, 4)
		if err != nil {
			t.Fatal(err)
		}
		res2, err := (&core.Driver{LG: mk(), Parallel: true}).RunStream(epoch.NewGridRows(g2))
		if err != nil {
			t.Fatal(err)
		}
		want2 := (&core.Driver{LG: mk()}).Run(g2)
		if res2.Epochs != want2.Epochs || !reflect.DeepEqual(res2.FinalSOS, want2.FinalSOS) {
			t.Errorf("%s: empty-epoch stream: epochs %d vs %d", lgName, res2.Epochs, want2.Epochs)
		}
	}
}
