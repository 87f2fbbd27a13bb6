// Command perfbench is the repository's end-to-end benchmark: one load
// generator process driving a butterflyd subprocess started with its
// default flags, over four seeded traffic mixes (see README.md).
//
// Usage (from the repository root; perfbench/run.sh builds both binaries):
//
//	perfbench -workload paper-apps -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it measures the end-to-end metrics with tracing off; with
// -trace 1 it replays the workload in process through the same public
// functions the server path calls, timing each call as a span, and reports
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A session whose
// reports differ from the serial in-process oracle fails the run (exit 1).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"butterfly/internal/store"
)

// Phase constants. None depends on a measurement taken during the run.
const (
	serverProcs  = 3    // butterflyd processes the closed and open loops are split over
	setupStarts  = 2    // butterflyd execs timed per server process; setup_s is their median
	recoveryReps = 5    // crash/restart cycles per run (recovery_s)
	closedRounds = 6    // closed-loop rounds per run, a multiple of serverProcs (events_per_s)
	minSamples   = 1000 // open-loop Acks per run, so p90 has ≥100 beyond it
	closedShare  = 0.5  // share of --seconds the closed loop is sized for
	openShare    = 0.5  // share of --seconds the open loop is sized for
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // butterflyd binary
	out      string // scratch and span-file directory
	root     string // source tree, for the stamp
	size     size
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "paper-apps", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds the run's work is sized for")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer run")
	flag.StringVar(&cfg.bin, "butterflyd", ".bench_build/butterflyd", "butterflyd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for scratch data and span files")
	flag.StringVar(&cfg.root, "root", ".", "repository root (for the source stamp)")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.size = fullSize

	res, stamp, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	sj, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", sj)
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(rj))
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: a session's reports differ from the oracle")
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result and stamp.
func run(cfg config) (*result, map[string]any, error) {
	if _, err := os.Stat(cfg.bin); err != nil {
		return nil, nil, fmt.Errorf("butterflyd binary: %w", err)
	}
	t0 := time.Now()
	w, err := buildWorkload(cfg.workload, cfg.seed, cfg.size)
	if err != nil {
		return nil, nil, err
	}
	stamp := map[string]any{
		"workload":         cfg.workload,
		"seed":             cfg.seed,
		"seconds":          cfg.seconds,
		"trace":            cfg.trace,
		"host":             hostname(),
		"nproc":            runtime.NumCPU(),
		"gomaxprocs_bench": runtime.GOMAXPROCS(0),
		"go_version":       runtime.Version(),
		"commit":           commit(cfg.root),
		"sessions":         len(w.traces),
		"events":           w.totalEvents(),
		"gen_s":            time.Since(t0).Seconds(),
	}
	runDir, err := filepath.Abs(filepath.Join(cfg.out, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(runDir)
	t := &tally{}
	var m map[string]metric
	steal0, total0 := cpuSteal()
	if cfg.trace {
		m, err = runTraced(cfg, w, runDir, t, stamp)
	} else {
		m, err = runEndToEnd(cfg, w, runDir, t, stamp)
	}
	if err != nil {
		return nil, nil, err
	}
	// CPU time the hypervisor gave to other guests while the run measured:
	// a high share marks a run disturbed from outside.
	steal1, total1 := cpuSteal()
	stamp["host_steal_frac"] = ratio(float64(steal1-steal0), float64(total1-total0))
	return &result{Correct: t.mismatches == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, stamp, nil
}

// startPhaseServer execs the run's butterflyd setupStarts times, each from
// scratch (a fresh data dir on durable workloads), timing exec → Welcome,
// and keeps the last one running.
func startPhaseServer(cfg config, w *workload, runDir string, starts int) (*daemon, []float64, int, error) {
	var samples []float64
	for i := 0; ; i++ {
		dataDir := ""
		if w.durable {
			dataDir = filepath.Join(runDir, fmt.Sprintf("data%d", i))
		}
		d, took, wel, err := startTimed(cfg.bin, dataDir, newHello(w, w.traces[0]))
		if err != nil {
			return nil, nil, 0, err
		}
		samples = append(samples, took)
		if i == starts-1 {
			return d, samples, wel.Shards, nil
		}
		d.kill()
	}
}

// phaseWork sizes the closed and open loops for nconn connections.
func phaseWork(cfg config, w *workload, nconn int) (closedPerConn, openPerConn int) {
	closedPerConn = int(float64(w.closedRate)*cfg.seconds*closedShare) / nconn
	openPerConn = int(w.rate*cfg.seconds*openShare) / nconn
	openPerConn = max(openPerConn, (minSamples+nconn-1)/nconn)
	return closedPerConn, openPerConn
}

// runEndToEnd measures the end-to-end metrics, tracing off. The warm-up,
// closed and open loops run on serverProcs butterflyd processes in turn,
// each taking an equal share, so one process's luck (its heap layout, its
// GC pacing, where the scheduler puts its goroutines) is one voice of
// several.
func runEndToEnd(cfg config, w *workload, runDir string, t *tally, stamp map[string]any) (map[string]metric, error) {
	nconn := runtime.NumCPU()
	stamp["connections"] = nconn
	var e e2e
	for p := 0; p < serverProcs; p++ {
		if err := e.serve(cfg, w, filepath.Join(runDir, fmt.Sprintf("server%d", p)), nconn, t); err != nil {
			return nil, err
		}
	}
	stamp["gomaxprocs_server"] = e.shards // butterflyd's -shards defaults to its GOMAXPROCS

	t0 := time.Now()
	var rec []unit
	for i := 0; i < recoveryReps; i++ {
		r, err := recovery(cfg.bin, filepath.Join(runDir, fmt.Sprintf("recover%d", i)), w, t)
		if err != nil {
			return nil, fmt.Errorf("recovery phase: %w", err)
		}
		rec = append(rec, r)
	}
	stamp["phase_s"] = map[string]float64{"warmup": e.warmup.Seconds(), "closed": e.closed.Seconds(),
		"open": e.open.Seconds(), "recovery": time.Since(t0).Seconds()}
	lat, quietLat := e.ol.latencies(), e.ol.quietLatencies()
	stamp["closed_rounds"] = e.rounds
	stamp["recovery_reps"] = rec
	stamp["server_peak_rss_mib"] = e.rss
	stamp["ack_samples"] = len(lat)
	stamp["ack_quiet_samples"] = len(quietLat)
	stamp["ack_ms"] = map[string]float64{"p50": quantile(lat, 0.5), "p90": quantile(lat, 0.9), "p99": quantile(lat, 0.99)}
	stamp["closed_events"] = e.events
	stamp["open_rate"] = w.rate
	return map[string]metric{
		"events_per_s":  {quietMedian(e.rounds), "events/s"},
		"ack_ms_p50":    {quantile(quietLat, 0.5), "ms"},
		"setup_s":       {median(e.setup), "s"},
		"server_rss_mb": {median(e.rss), "MiB"},
		"ok_frac":       {1 - float64(t.failed)/float64(t.attempted), "ratio"},
		"recovery_s":    {quietMedian(rec), "s"},
	}, nil
}

// e2e accumulates the end-to-end phases over the run's server processes.
type e2e struct {
	setup, rss           []float64
	rounds               []unit
	ol                   openStats
	events               int
	warmup, closed, open time.Duration
	shards               int
}

// serve starts one butterflyd (timing setupStarts execs), discards a
// warm-up pass, then runs this process's share of the closed-loop rounds
// and of the open loop, and records its peak RSS.
func (e *e2e) serve(cfg config, w *workload, dir string, nconn int, t *tally) error {
	d, setup, shards, err := startPhaseServer(cfg, w, dir, setupStarts)
	if err != nil {
		return err
	}
	defer d.stop()
	e.setup, e.shards = append(e.setup, setup...), shards

	// Warm-up: one discarded pass over every session trace per connection.
	t0 := time.Now()
	closedLoop(d.addr, w, nconn, w.totalEvents(), t)
	e.warmup += time.Since(t0)
	closedPerConn, openPerConn := phaseWork(cfg, w, nconn)
	// A collection of the generator's own heap (the traces) landing inside
	// a phase would show as server latency; start each phase collected.
	runtime.GC()
	for i := 0; i < closedRounds/serverProcs; i++ {
		m := startUnit()
		n, dur := closedLoop(d.addr, w, nconn, closedPerConn/closedRounds, t)
		e.rounds = append(e.rounds, m.done(float64(n)/dur.Seconds()))
		e.events, e.closed = e.events+n, e.closed+dur
	}
	runtime.GC()
	t0 = time.Now()
	openLoop(d.addr, w, nconn, openPerConn/serverProcs, t, &e.ol)
	e.open += time.Since(t0)
	rss, err := d.peakRSSMiB()
	if err != nil {
		return err
	}
	e.rss = append(e.rss, rss)
	return nil
}

// runTraced measures the per-layer metrics: an in-process traced replay of
// the server path (after an untraced warm-up replay), the same replay
// untraced for the tracing overhead, the store's append and replay sides,
// feed-only passes at the default and a single shard, and an open-loop
// phase against butterflyd for the server-side backlog and latency tail.
func runTraced(cfg config, w *workload, runDir string, t *tally, stamp map[string]any) (map[string]metric, error) {
	if _, err := replay(w, replayOpts{}); err != nil {
		return nil, err
	}
	openStore := func(name string) (*store.Store, string, error) {
		dir := filepath.Join(runDir, name)
		st, err := store.Open(store.Options{Dir: dir})
		return st, dir, err
	}
	// The traced replay. Durable workloads append to a WAL inside it, as
	// their server does; the others write the same WAL in a side pass.
	tr := &tracer{base: time.Now()}
	walStore, walDir, err := openStore("wal")
	if err != nil {
		return nil, err
	}
	var chainWAL *store.Store
	if w.durable {
		chainWAL = walStore
	}
	tot, err := replay(w, replayOpts{tr: tr, wal: chainWAL})
	if err != nil {
		walStore.Close()
		return nil, err
	}
	chainSpans := len(tr.spans)
	if !w.durable {
		err = fillWAL(w, walStore, tr)
	}
	if e := walStore.Close(); err == nil {
		err = e
	}
	if err != nil {
		return nil, err
	}
	t.attempted += len(w.traces)

	// The same replay untraced (with its own WAL on durable workloads).
	var untracedWAL *store.Store
	if w.durable {
		if untracedWAL, _, err = openStore("wal-untraced"); err != nil {
			return nil, err
		}
	}
	untraced, err := replay(w, replayOpts{wal: untracedWAL})
	if untracedWAL != nil {
		if e := untracedWAL.Close(); err == nil {
			err = e
		}
	}
	if err != nil {
		return nil, err
	}

	walBytes, err := dirBytes(walDir)
	if err != nil {
		return nil, err
	}
	replayDur, replayEpochs, err := replayWAL(w, walDir)
	if err != nil {
		return nil, err
	}
	kDur, allocs, allocBytes, err := feedOnly(w, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	k1Dur, _, _, err := feedOnly(w, 1)
	if err != nil {
		return nil, err
	}

	nconn := runtime.NumCPU()
	d, _, shards, err := startPhaseServer(cfg, w, runDir, 1)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	stamp["gomaxprocs_server"] = shards
	stamp["connections"] = nconn
	closedLoop(d.addr, w, nconn, w.totalEvents(), t) // warm-up
	_, openPerConn := phaseWork(cfg, w, nconn)
	runtime.GC()
	ol := &openStats{}
	openLoop(d.addr, w, nconn, openPerConn, t, ol)
	d.stop()
	lat := ol.latencies()

	ns, count := layerTimes(tr.spans[:chainSpans])
	var covered int64
	for _, s := range tr.spans[:chainSpans] {
		if s.Parent >= 0 {
			covered += s.End - s.Start
		}
	}
	appendNs, appendCount := layerTimes(tr.spans)
	per := func(name string) float64 { return ratio(float64(ns[name]), float64(count[name])) }
	E, R, L := float64(tot.events), float64(tot.reports), float64(tot.epochs)

	spanPath := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(spanPath), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(spanPath, stamp, tr.spans); err != nil {
		return nil, err
	}
	stamp["span_file"] = spanPath
	stamp["ack_samples"] = len(lat)
	return map[string]metric{
		"client.encode_ns_per_epoch":         {per(spanEncode), "ns"},
		"proto.frame_ns_per_epoch":           {per(spanFrame), "ns"},
		"proto.decode_ns_per_epoch":          {per(spanDecode), "ns"},
		"client.wire_bytes_per_event":        {ratio(float64(tot.wireBytes), E), "bytes"},
		"proto.report_encode_ns_per_report":  {ratio(float64(ns[spanReportEncode]), R), "ns"},
		"client.report_decode_ns_per_report": {ratio(float64(ns[spanReportDecode]), R), "ns"},
		"proto.report_bytes_per_report":      {ratio(float64(tot.reportBytes), R), "bytes"},
		"core.reports_per_event":             {ratio(R, E), "ratio"},
		"core.feed_ns_per_epoch":             {per(spanFeed), "ns"},
		"core.finish_ns":                     {per(spanCoreFinish), "ns"},
		"core.allocs_per_epoch":              {ratio(float64(allocs), L), "count"},
		"core.alloc_bytes_per_epoch":         {ratio(float64(allocBytes), L), "bytes"},
		"core.feed_ns_per_epoch_k1":          {ratio(float64(k1Dur), L), "ns"},
		"core.shard_speedup":                 {ratio(float64(k1Dur), float64(kDur)), "ratio"},
		"core.state_bytes":                   {float64(tot.stateBytes), "bytes"},
		"store.append_ns_per_epoch":          {ratio(float64(appendNs[spanAppend]), float64(appendCount[spanAppend])), "ns"},
		"store.bytes_per_epoch":              {ratio(float64(walBytes), L), "bytes"},
		"store.replay_ns_per_epoch":          {ratio(float64(replayDur), float64(replayEpochs)), "ns"},
		"server.unacked_max":                 {float64(ol.unackedMax), "count"},
		"server.ack_ms_p90":                  {quantile(lat, 0.9), "ms"},
		"server.ack_ms_p99":                  {quantile(lat, 0.99), "ms"},
		"server.residual_ms_p50":             {quantile(lat, 0.5) - medianRootMs(tr.spans[:chainSpans]), "ms"},
		"gen.late_ms_max":                    {ol.lateMaxMs, "ms"},
		"trace.coverage":                     {ratio(float64(covered), float64(tot.wall)), "ratio"},
		"trace.overhead":                     {ratio(float64(tot.wall), float64(untraced.wall)), "ratio"},
	}, nil
}

func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return "unknown"
	}
	return h
}

// commit names the measured source: the git commit when root is a git
// checkout, otherwise a SHA-256 over the Go sources and module files.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != root && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && e.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))
}
