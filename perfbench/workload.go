package main

import (
	"fmt"
	"math/rand"

	"butterfly/internal/apps"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/registry"
	"butterfly/internal/machine"
	"butterfly/internal/proto"
	"butterfly/internal/trace"
)

// workload is one traffic mix: the lifeguard every session asks for, the
// session traces the load generator cycles through, and the constants that
// shape each phase. Nothing in it is derived from a measurement taken
// during the run.
type workload struct {
	name      string
	lifeguard string
	heapBase  uint64
	// durable runs the phase server with -data-dir (and the default
	// -fsync batched).
	durable bool
	// rate is the open-loop offered load in epochs/s, split evenly over
	// the connections: about half of what one closed-loop connection
	// sustains on a 2-core host at the commit that introduced this
	// benchmark.
	rate float64
	// closedRate sizes the closed loop: the events/s two connections
	// together sustain on that host and commit. The phase sends
	// closedRate × closedShare × --seconds events.
	closedRate int
	traces     []*sessionTrace
}

// sessionTrace is one session's input: epoch rows exactly as butterflyd
// decodes them, plus the serial in-process driver's reports over them (the
// correctness oracle every remote session is compared against).
type sessionTrace struct {
	name    string
	T       int
	rows    [][][]trace.Event // rows[l][t]
	events  int
	payload [][]byte // payload[l] is the Epoch frame payload of rows[l]
	g       *epoch.Grid
	oracle  []core.Report
}

var workloadNames = []string{"paper-apps", "report-flood", "durable-frag", "lock-mixed"}

// size scales the generated inputs; the self-test uses a tiny one.
type size struct {
	appOps     int // paper-apps: target ops per thread per app
	floodEv    int // report-flood: events per thread per session
	fragAllocs int // durable-frag: live 8-byte allocations
	fragAcc    int // durable-frag: accesses per thread
	lockEv     int // lock-mixed: events per thread per session
	sessions   int // report-flood / lock-mixed: distinct session traces
}

var fullSize = size{appOps: 48 << 10, floodEv: 8 << 10, fragAllocs: 64 << 10, fragAcc: 96 << 10, lockEv: 2 << 10, sessions: 4}
var tinySize = size{appOps: 2 << 10, floodEv: 256, fragAllocs: 1 << 10, fragAcc: 1 << 10, lockEv: 256, sessions: 2}

// buildWorkload generates the named workload's traces from seed and runs
// each through the serial oracle.
func buildWorkload(name string, seed int64, sz size) (*workload, error) {
	var w *workload
	var err error
	switch name {
	case "paper-apps":
		w, err = paperApps(seed, sz)
	case "report-flood":
		w, err = reportFlood(seed, sz)
	case "durable-frag":
		w, err = durableFrag(seed, sz)
	case "lock-mixed":
		w, err = lockMixed(seed, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, st := range w.traces {
		if err := st.prepare(w); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, st.name, err)
		}
	}
	return w, nil
}

// paperApps: heap-only AddrCheck over machine-simulated runs of the six
// Splash-2/Parsec analogs, 4 application threads, chunked at the heartbeat.
func paperApps(seed int64, sz size) (*workload, error) {
	w := &workload{name: "paper-apps", lifeguard: "addrcheck", rate: 390, closedRate: 4_400_000}
	for _, app := range apps.All {
		p, err := app.Build(apps.Params{Threads: 4, TargetOps: sz.appOps, Seed: seed})
		if err != nil {
			return nil, err
		}
		cfg := machine.Table1Config(4)
		cfg.Seed = seed
		cfg.HeartbeatH = 1 << 10
		res, err := machine.Run(p, cfg)
		if err != nil {
			return nil, err
		}
		g, err := epoch.ChunkByHeartbeat(res.Trace)
		if err != nil {
			return nil, err
		}
		w.heapBase = cfg.HeapBase
		st := &sessionTrace{name: app.Name, T: 4}
		for _, row := range g.Blocks {
			evs := make([][]trace.Event, len(row))
			for t, b := range row {
				evs[t] = b.Events
			}
			st.rows = append(st.rows, evs)
		}
		w.traces = append(w.traces, st)
	}
	return w, nil
}

// reportFlood: AddrCheck where every event reads never-allocated heap, so
// every event is one report.
func reportFlood(seed int64, sz size) (*workload, error) {
	const heapBase = 1 << 20
	w := &workload{name: "report-flood", lifeguard: "addrcheck", heapBase: heapBase, rate: 560, closedRate: 390_000}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < sz.sessions; s++ {
		b := trace.NewBuilder(4)
		for t := 0; t < 4; t++ {
			b.T(trace.ThreadID(t))
			for i := 0; i < sz.floodEv; i++ {
				b.Read(heapBase+uint64(rng.Intn(1<<20))*8, 8)
			}
		}
		st, err := chunked(fmt.Sprintf("flood%d", s), b.Build(), 64)
		if err != nil {
			return nil, err
		}
		w.traces = append(w.traces, st)
	}
	return w, nil
}

// durableFrag: MemCheck over a fragmented heap — two threads allocate and
// initialize fragAllocs 8-byte blocks with 8-byte gaps between them (the
// threads interleave block by block), then read and write random live
// blocks for one and a half times as many events. One access in 256 strays
// into a gap, so the report path carries a trickle.
func durableFrag(seed int64, sz size) (*workload, error) {
	const heapBase = 1 << 20
	w := &workload{name: "durable-frag", lifeguard: "memcheck", heapBase: heapBase, durable: true, rate: 550, closedRate: 1_350_000}
	rng := rand.New(rand.NewSource(seed))
	b := trace.NewBuilder(2)
	for i := 0; i < sz.fragAllocs; i++ {
		addr := heapBase + uint64(i)*16
		b.T(trace.ThreadID(i%2)).Alloc(addr, 8).Write(addr, 8)
	}
	for t := 0; t < 2; t++ {
		b.T(trace.ThreadID(t))
		for i := 0; i < sz.fragAcc; i++ {
			addr := heapBase + uint64(rng.Intn(sz.fragAllocs))*16
			if rng.Intn(256) == 0 {
				addr += 8
			}
			if rng.Intn(2) == 0 {
				b.Write(addr, 8)
			} else {
				b.Read(addr, 8)
			}
		}
	}
	st, err := chunked("frag", b.Build(), 512)
	if err != nil {
		return nil, err
	}
	w.traces = append(w.traces, st)
	return w, nil
}

// lockMixed: LockSet over 4 threads updating shared words under their
// locks, with a minority of unprotected writes.
func lockMixed(seed int64, sz size) (*workload, error) {
	const (
		vars   = 64
		locks  = 8
		shared = 0x10000
	)
	w := &workload{name: "lock-mixed", lifeguard: "lockset", rate: 230, closedRate: 53_000}
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < sz.sessions; s++ {
		b := trace.NewBuilder(4)
		for t := 0; t < 4; t++ {
			b.T(trace.ThreadID(t))
			for n := 0; n < sz.lockEv; {
				v := uint64(rng.Intn(vars))
				addr := shared + v*8
				if rng.Intn(128) == 0 {
					b.Write(addr, 8)
					n++
					continue
				}
				b.Lock(v%locks).Read(addr, 8).Write(addr, 8).Unlock(v % locks)
				n += 4
			}
		}
		st, err := chunked(fmt.Sprintf("lock%d", s), b.Build(), 32)
		if err != nil {
			return nil, err
		}
		w.traces = append(w.traces, st)
	}
	return w, nil
}

// chunked splits a hand-built trace into epochs of h events per thread.
func chunked(name string, tr *trace.Trace, h int) (*sessionTrace, error) {
	g, err := epoch.ChunkByCount(tr, h)
	if err != nil {
		return nil, err
	}
	st := &sessionTrace{name: name, T: g.NumThreads}
	for _, row := range g.Blocks {
		evs := make([][]trace.Event, len(row))
		for t, b := range row {
			evs[t] = b.Events
		}
		st.rows = append(st.rows, evs)
	}
	return st, nil
}

// prepare round-trips every row through the wire codec (so the rows hold
// exactly what butterflyd decodes — the codec carries no simulator cycle
// stamps), keeps the frame payloads, and computes the oracle reports with
// the serial, unsharded in-process driver.
func (st *sessionTrace) prepare(w *workload) error {
	st.payload = make([][]byte, len(st.rows))
	st.events = 0
	for l, row := range st.rows {
		p, err := proto.EncodeEpoch(l, row)
		if err != nil {
			return err
		}
		_, dec, err := proto.DecodeEpoch(p, st.T)
		if err != nil {
			return err
		}
		st.rows[l], st.payload[l] = dec, p
		for _, evs := range dec {
			st.events += len(evs)
		}
	}
	lg, err := registry.New(w.lifeguard, registry.Options{HeapBase: w.heapBase})
	if err != nil {
		return err
	}
	st.g = st.grid()
	res, err := (&core.Driver{LG: lg, Parallel: false, Shards: 1}).RunStream(epoch.NewGridRows(st.g))
	if err != nil {
		return err
	}
	if res.Events != st.events {
		return fmt.Errorf("oracle analyzed %d events, trace has %d", res.Events, st.events)
	}
	st.oracle = res.Reports
	return nil
}

// grid returns the rows as fresh blocks, labeled the way butterflyd's
// RowBuilder labels decoded rows. Blocks alias the rows' event slices,
// which no driver writes.
func (st *sessionTrace) grid() *epoch.Grid {
	rb := epoch.NewRowBuilder(st.T)
	g := &epoch.Grid{NumThreads: st.T, Blocks: make([][]*epoch.Block, len(st.rows))}
	for l, row := range st.rows {
		g.Blocks[l] = rb.Row(row)
	}
	return g
}

// sameReports is the correctness gate: a session's reports must equal the
// oracle's field for field (every Ref and Event field, every byte of Code
// and Detail), in order.
func sameReports(got, want []core.Report) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d reports, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("report %d differs from the oracle: got %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// totalEvents sums the events of every session trace.
func (w *workload) totalEvents() int {
	n := 0
	for _, st := range w.traces {
		n += st.events
	}
	return n
}
