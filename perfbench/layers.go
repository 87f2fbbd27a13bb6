package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/lifeguard/registry"
	"butterfly/internal/proto"
	"butterfly/internal/store"
	"butterfly/internal/trace"
)

// Span names: one root per epoch tick ("epoch", or "finish" for the
// trailing tick), one child per call into a layer's public function.
const (
	spanEpoch        = "epoch"
	spanFinish       = "finish"
	spanEncode       = "client.encode"       // proto.EncodeEpoch
	spanFrame        = "proto.frame"         // proto.WriteFrame + FrameReader.Read
	spanDecode       = "proto.decode"        // proto.DecodeEpochInto + RowBuilder.Stamp
	spanFeed         = "core.feed"           // Incremental.FeedEpoch
	spanCoreFinish   = "core.finish"         // Incremental.Finish
	spanAppend       = "store.append"        // Log.AppendEpoch
	spanReportEncode = "proto.report_encode" // proto.WriteJSON(FrameReports)
	spanReportDecode = "client.report_decode"
	spanStoreFill    = "store.fill" // side pass writing the WAL when the server has no store
)

// span is one timed call. Times are nanoseconds since the tracer's base.
type span struct {
	Name    string `json:"name"`
	Session int    `json:"session"`
	Epoch   int    `json:"epoch"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is the untraced replay.
type tracer struct {
	base  time.Time
	spans []span
}

func (tr *tracer) begin(name string, session, epoch, parent int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Session: session, Epoch: epoch, Parent: parent,
		Start: int64(time.Since(tr.base))})
	return len(tr.spans) - 1
}

func (tr *tracer) end(i int) {
	if tr == nil {
		return
	}
	tr.spans[i].End = int64(time.Since(tr.base))
}

// replayOpts configures one in-process replay of a workload.
type replayOpts struct {
	tr *tracer
	// wal, when set, appends every epoch to a session log in this store,
	// after the feed and before the reports, as butterflyd does when
	// started with -data-dir.
	wal *store.Store
}

// replayTotals are the counts one replay accumulates.
type replayTotals struct {
	epochs, events, reports int
	wireBytes, reportBytes  int
	stateBytes              int64 // largest Incremental.MemEstimate before Finish
	// wall is the time spent on the epoch path: from each session's first
	// epoch to the end of its finish tick (driver set-up, WAL create/close
	// and the correctness check are outside it).
	wall time.Duration
}

// newSessionDriver configures a driver exactly as butterflyd's session.go
// does for a Hello of this workload: parallel, Shards = the server's
// default (GOMAXPROCS) unless overridden.
func newSessionDriver(w *workload, shards int) (*core.Driver, error) {
	lg, err := registry.New(w.lifeguard, registry.Options{HeapBase: w.heapBase})
	if err != nil {
		return nil, err
	}
	return &core.Driver{LG: lg, Parallel: true, Shards: shards}, nil
}

// replay runs every session trace of w through the server's epoch path in
// process, in the server's order: client encode → frame write/read →
// pooled decode → FeedEpoch → (WAL append) → report encode → client report
// decode. Every session's reports are gated against the oracle.
func replay(w *workload, o replayOpts) (replayTotals, error) {
	var tot replayTotals
	var wire, rwire bytes.Buffer
	fr := proto.NewFrameReader(bufio.NewReader(&wire))
	rr := bufio.NewReader(&rwire)
	for si, st := range w.traces {
		d, err := newSessionDriver(w, runtime.GOMAXPROCS(0))
		if err != nil {
			return tot, err
		}
		inc, err := d.NewIncrementalTrimmed(st.T)
		if err != nil {
			return tot, err
		}
		var pool epoch.RowPool
		inc.SetRowRecycler(pool.Put)
		rb := epoch.NewRowBuilder(st.T)
		evRow := make([][]trace.Event, st.T)
		var wal *store.Log
		if o.wal != nil {
			h := newHello(w, st)
			id := sessionID(si)
			if wal, err = o.wal.Create(id, store.Meta{Session: id, Hello: h}, nil); err != nil {
				return tot, err
			}
		}
		var got []core.Report
		reportPath := func(tick, root int, reps []core.Report) error {
			sp := o.tr.begin(spanReportEncode, si, tick, root)
			rwire.Reset()
			err := proto.WriteJSON(&rwire, proto.FrameReports, proto.Reports{Epoch: tick, Reports: reps})
			o.tr.end(sp)
			if err != nil {
				return err
			}
			tot.reportBytes += rwire.Len()
			sp = o.tr.begin(spanReportDecode, si, tick, root)
			var rep proto.Reports
			_, payload, err := proto.ReadFrame(rr)
			if err == nil {
				err = proto.DecodeReports(payload, &rep)
			}
			got = append(got, rep.Reports...) // the client's report assembly
			o.tr.end(sp)
			return err
		}
		t0 := time.Now()
		for l, row := range st.rows {
			root := o.tr.begin(spanEpoch, si, l, -1)

			sp := o.tr.begin(spanEncode, si, l, root)
			payload, err := proto.EncodeEpoch(l, row)
			o.tr.end(sp)
			if err != nil {
				return tot, err
			}

			sp = o.tr.begin(spanFrame, si, l, root)
			wire.Reset()
			err = proto.WriteFrame(&wire, proto.FrameEpoch, payload)
			var frame []byte
			if err == nil {
				_, frame, err = fr.Read()
			}
			o.tr.end(sp)
			if err != nil {
				return tot, err
			}
			tot.wireBytes += len(frame) + 5

			sp = o.tr.begin(spanDecode, si, l, root)
			blocks := pool.Get(st.T)
			for t, b := range blocks {
				evRow[t] = b.Events[:0]
			}
			num, dec, err := proto.DecodeEpochInto(frame, st.T, evRow)
			if err == nil {
				for t, b := range blocks {
					b.Events = dec[t]
				}
				rb.Stamp(blocks)
			}
			o.tr.end(sp)
			if err != nil {
				return tot, err
			}

			sp = o.tr.begin(spanFeed, si, num, root)
			reps, err := inc.FeedEpoch(blocks)
			o.tr.end(sp)
			if err != nil {
				return tot, err
			}
			tot.reports += len(reps)

			if wal != nil {
				sp = o.tr.begin(spanAppend, si, num, root)
				err := wal.AppendEpoch(frame, store.Snapshot{Acked: num, Epochs: int64(num + 1), Reports: tot.reports})
				o.tr.end(sp)
				if err != nil {
					return tot, err
				}
			}
			if len(reps) > 0 {
				if err := reportPath(num, root, reps); err != nil {
					return tot, err
				}
			}
			o.tr.end(root)
		}
		tot.stateBytes = max(tot.stateBytes, inc.MemEstimate())

		root := o.tr.begin(spanFinish, si, len(st.rows), -1)
		sp := o.tr.begin(spanCoreFinish, si, len(st.rows), root)
		res, err := inc.Finish()
		o.tr.end(sp)
		inc.Close()
		if err != nil {
			return tot, err
		}
		tot.reports += len(res.Reports)
		if len(res.Reports) > 0 {
			if err := reportPath(res.Epochs, root, res.Reports); err != nil {
				return tot, err
			}
		}
		o.tr.end(root)
		tot.wall += time.Since(t0)
		if wal != nil {
			if err := wal.Close(); err != nil {
				return tot, err
			}
		}
		tot.epochs += res.Epochs
		tot.events += res.Events
		if err := checkResult(st, res.Epochs, res.Events, got); err != nil {
			return tot, fmt.Errorf("traced replay of %s: %w", st.name, err)
		}
	}
	return tot, nil
}

// sessionID is a valid store session token for session index i.
func sessionID(i int) string { return fmt.Sprintf("%032x", i+1) }

// fillWAL writes every session's epoch payloads to a session log, the
// store half of the server path, for workloads whose server has no store.
func fillWAL(w *workload, st *store.Store, tr *tracer) error {
	for si, s := range w.traces {
		id := sessionID(si)
		wal, err := st.Create(id, store.Meta{Session: id, Hello: newHello(w, s)}, nil)
		if err != nil {
			return err
		}
		root := tr.begin(spanStoreFill, si, 0, -1)
		for l, p := range s.payload {
			sp := tr.begin(spanAppend, si, l, root)
			err := wal.AppendEpoch(p, store.Snapshot{Acked: l, Epochs: int64(l + 1)})
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		tr.end(root)
		if err := wal.Close(); err != nil {
			return err
		}
	}
	return nil
}

// replayWAL is butterflyd's boot-time recovery in process: Store.Recover,
// then Recovered.Replay of every log through pooled decode into a fresh
// Incremental. It returns the wall time and the epochs replayed.
func replayWAL(w *workload, dir string) (time.Duration, int, error) {
	t0 := time.Now()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	recs, err := st.Recover()
	if err != nil {
		return 0, 0, err
	}
	epochs := 0
	for _, rec := range recs {
		T := rec.Meta.Hello.NumThreads
		d, err := newSessionDriver(w, runtime.GOMAXPROCS(0))
		if err != nil {
			return 0, 0, err
		}
		inc, err := d.NewIncrementalTrimmed(T)
		if err != nil {
			return 0, 0, err
		}
		var pool epoch.RowPool
		inc.SetRowRecycler(pool.Put)
		rb := epoch.NewRowBuilder(T)
		evRow := make([][]trace.Event, T)
		err = rec.Replay(func(_ int, payload []byte) error {
			blocks := pool.Get(T)
			for t, b := range blocks {
				evRow[t] = b.Events[:0]
			}
			_, dec, err := proto.DecodeEpochInto(payload, T, evRow)
			if err != nil {
				return err
			}
			for t, b := range blocks {
				b.Events = dec[t]
			}
			rb.Stamp(blocks)
			_, err = inc.FeedEpoch(blocks)
			return err
		})
		inc.Close()
		if err != nil {
			return 0, 0, err
		}
		epochs += rec.Epochs
	}
	return time.Since(t0), epochs, nil
}

// feedOnly feeds pre-built rows straight into FeedEpoch (no codec around
// it) with the given shard count and returns the feed wall time and the
// MemStats allocation deltas over the whole loop, Finish included.
func feedOnly(w *workload, shards int) (time.Duration, uint64, uint64, error) {
	var elapsed time.Duration
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, st := range w.traces {
		d, err := newSessionDriver(w, shards)
		if err != nil {
			return 0, 0, 0, err
		}
		inc, err := d.NewIncrementalTrimmed(st.T)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		for _, row := range st.g.Blocks {
			if _, err := inc.FeedEpoch(row); err != nil {
				return 0, 0, 0, err
			}
		}
		_, err = inc.Finish()
		elapsed += time.Since(t0)
		inc.Close()
		if err != nil {
			return 0, 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return elapsed, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// layerTimes sums span durations by name and counts them.
func layerTimes(spans []span) (ns map[string]int64, count map[string]int) {
	ns, count = map[string]int64{}, map[string]int{}
	for _, s := range spans {
		ns[s.Name] += s.End - s.Start
		count[s.Name]++
	}
	return ns, count
}

// medianRootMs is the median duration of the per-epoch root spans: the
// in-process cost of one epoch along the whole path.
func medianRootMs(spans []span) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == spanEpoch {
			d = append(d, float64(s.End-s.Start)/1e6)
		}
	}
	sort.Float64s(d)
	return quantile(d, 0.5)
}

// writeSpans writes the span list, with the run's stamp, as JSON.
func writeSpans(path string, stamp map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(map[string]any{"stamp": stamp, "spans": spans})
	if e := bw.Flush(); err == nil {
		err = e
	}
	if e := f.Close(); err == nil {
		err = e
	}
	return err
}
