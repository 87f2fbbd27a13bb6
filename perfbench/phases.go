package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"butterfly/internal/client"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/proto"
)

// tally counts a phase's sessions. A session fails when it is rejected or
// aborted, does not finish, or returns reports that differ from the oracle
// (mismatches are also counted on their own: they fail the whole run).
type tally struct {
	mu         sync.Mutex
	attempted  int
	failed     int
	mismatches int
}

func (t *tally) add(workload string, st *sessionTrace, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	var m mismatchError
	if errors.As(err, &m) {
		t.mismatches++
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s session %s failed: %v\n", workload, st.name, err)
}

// mismatchError marks a session whose output differs from the oracle.
type mismatchError struct{ error }

// checkResult applies the correctness gate to one finished session.
func checkResult(st *sessionTrace, epochs, events int, reps []core.Report) error {
	if epochs != len(st.rows) || events != st.events {
		return mismatchError{fmt.Errorf("analyzed %d epochs/%d events, trace has %d/%d", epochs, events, len(st.rows), st.events)}
	}
	if err := sameReports(reps, st.oracle); err != nil {
		return mismatchError{err}
	}
	return nil
}

// closedLoop runs nconn connections, each streaming whole sessions through
// the real client.Run back to back until it has sent perConn events. It
// returns the events analyzed and the phase's wall time.
func closedLoop(addr string, w *workload, nconn, perConn int, t *tally) (int, time.Duration) {
	opts := client.Options{Lifeguard: w.lifeguard, HeapBase: w.heapBase}
	var events atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < nconn; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, done := c, 0; done < perConn; i++ {
				st := w.traces[i%len(w.traces)]
				done += st.events
				res, err := client.Run(addr, opts, epoch.NewGridRows(st.g))
				if err == nil {
					err = checkResult(st, res.Epochs, res.Events, res.Reports)
				}
				if err == nil {
					events.Add(int64(res.Events))
				}
				t.add(w.name, st, err)
			}
		}(c)
	}
	wg.Wait()
	return int(events.Load()), time.Since(start)
}

// openStats is what the open-loop phase measured.
type openStats struct {
	mu         sync.Mutex
	sessions   []sessionLat
	lateMaxMs  float64 // worst lateness of a send against its schedule
	unackedMax int     // deepest backlog of sent-but-unacked epochs
}

// sessionLat is one open-loop session's epoch latencies (scheduled send →
// Ack, in ms) and the host steal share while it ran.
type sessionLat struct {
	steal float64
	ms    []float64
}

// latencies returns the samples of every session, sorted.
func (ol *openStats) latencies() []float64 {
	var v []float64
	for _, s := range ol.sessions {
		v = append(v, s.ms...)
	}
	sort.Float64s(v)
	return v
}

// quietLatencies returns the samples of the quiet sessions (see quiet),
// sorted.
func (ol *openStats) quietLatencies() []float64 {
	steal, weight := make([]float64, len(ol.sessions)), make([]int, len(ol.sessions))
	for i, s := range ol.sessions {
		steal[i], weight[i] = s.steal, len(s.ms)
	}
	var v []float64
	for i, k := range quiet(steal, weight) {
		if k {
			v = append(v, ol.sessions[i].ms...)
		}
	}
	sort.Float64s(v)
	return v
}

// openLoop runs nconn connections, each sending epoch frames on a fixed
// schedule of w.rate/nconn epochs/s without waiting for replies, whole
// sessions back to back, until it has sent perConn epochs; the sessions are
// added to ol. The schedule is one grid of send slots per connection for
// the whole phase, staggered by an equal share of the period; a session
// takes the first free slot after its Welcome, so session boundaries never
// shift the stagger.
func openLoop(addr string, w *workload, nconn, perConn int, t *tally, ol *openStats) {
	start := time.Now().Add(50 * time.Millisecond)
	period := time.Duration(float64(time.Second) * float64(nconn) / w.rate)
	var wg sync.WaitGroup
	for c := 0; c < nconn; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// The sender sleeps on its own OS thread (sleepUntil), so its
			// wake-ups are not rounded to the runtime poller's millisecond.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			s := slots{start: start.Add(period * time.Duration(c) / time.Duration(nconn)), period: period}
			for i, sent := c, 0; sent < perConn; i++ {
				st := w.traces[i%len(w.traces)]
				sent += len(st.rows)
				t.add(w.name, st, openSession(addr, w, st, &s, ol))
			}
		}(c)
	}
	wg.Wait()
}

// slots is one connection's send schedule: slot k is due at
// start + k·period.
type slots struct {
	start  time.Time
	period time.Duration
}

func (s *slots) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.period) }

// next returns the first slot due at or after now.
func (s *slots) next() int {
	k := int((time.Since(s.start) + s.period - 1) / s.period)
	return max(k, 0)
}

// sleepUntil blocks the calling OS thread until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// openSession streams one session on schedule: epoch l takes slot k0+l,
// is encoded when due (so the client encode stays on the timed path), and
// its latency runs from that due time to its Ack. After Done it sends the
// End goodbye so the server drops the session.
func openSession(addr string, w *workload, st *sessionTrace, s *slots, ol *openStats) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.c.Close()
	if _, err := c.hello(newHello(w, st)); err != nil {
		return err
	}
	m, k0 := startUnit(), s.next()
	due := func(l int) time.Time { return s.due(k0 + l) }

	var acked atomic.Int64
	type readResult struct {
		reps []core.Report
		done proto.Done
		lat  []float64
		err  error
	}
	rc := make(chan readResult, 1)
	go func() {
		var r readResult
		r.lat = make([]float64, 0, len(st.rows))
		r.err = readSession(c, func(num int) {
			r.lat = append(r.lat, float64(time.Since(due(num)))/1e6)
			acked.Store(int64(num + 1))
		}, &r.reps, &r.done)
		rc <- r
	}()

	lateMax, unackedMax := 0.0, 0
	var sendErr error
	for l, row := range st.rows {
		sleepUntil(due(l))
		lateMax = max(lateMax, float64(time.Since(due(l)))/1e6)
		payload, err := proto.EncodeEpoch(l, row)
		if err == nil {
			err = proto.WriteFrame(c.bw, proto.FrameEpoch, payload)
		}
		if err == nil {
			err = c.bw.Flush()
		}
		if err != nil {
			sendErr = err
			break
		}
		if n := l + 1 - int(acked.Load()); n > unackedMax {
			unackedMax = n
		}
	}
	if sendErr == nil {
		sendErr = c.end()
	}
	if sendErr != nil {
		c.c.Close() // unblock the reader
	}
	r := <-rc
	if sendErr != nil {
		return sendErr
	}
	if r.err != nil {
		return r.err
	}
	if err := c.end(); err != nil { // the goodbye
		return err
	}
	ol.mu.Lock()
	ol.sessions = append(ol.sessions, sessionLat{m.done(0).Steal, r.lat})
	ol.lateMaxMs = max(ol.lateMaxMs, lateMax)
	ol.unackedMax = max(ol.unackedMax, unackedMax)
	ol.mu.Unlock()
	return checkResult(st, r.done.Epochs, r.done.Events, r.reps)
}

// readSession reads server frames until Done, handing every Ack to onAck
// and collecting Reports frames (in arrival order, which is tick order).
func readSession(c *conn, onAck func(int), reps *[]core.Report, done *proto.Done) error {
	for {
		ft, payload, err := proto.ReadFrame(c.br)
		if err != nil {
			return err
		}
		switch ft {
		case proto.FrameAck:
			num, err := proto.DecodeAck(payload)
			if err != nil {
				return err
			}
			onAck(num)
		case proto.FrameReports:
			var rep proto.Reports
			if err := proto.DecodeReports(payload, &rep); err != nil {
				return err
			}
			*reps = append(*reps, rep.Reports...)
		case proto.FrameDone:
			return json.Unmarshal(payload, done)
		default:
			return fmt.Errorf("unexpected %v frame: %s", ft, payload)
		}
	}
}

func newHello(w *workload, st *sessionTrace) proto.Hello {
	return proto.Hello{Proto: proto.Version, Lifeguard: w.lifeguard, HeapBase: w.heapBase,
		NumThreads: st.T, AckedEpoch: -1}
}

// recovery runs the crash-recovery phase on a fresh butterflyd over
// dataDir: every session trace of the workload is streamed and fully
// Acked, without End; butterflyd is SIGKILLed and restarted on the same
// directory, and the time from that exec to the Welcome of the first
// resume Hello is returned. The resumed sessions are then finished and
// gated like any other.
func recovery(bin, dataDir string, w *workload, t *tally) (unit, error) {
	d, err := startDaemon(bin, dataDir)
	if err != nil {
		return unit{}, err
	}
	type streamed struct {
		session string
		reps    []core.Report
	}
	var live []streamed
	for _, st := range w.traces {
		s, reps, err := streamUnfinished(d.addr, w, st)
		if err != nil {
			d.kill()
			return unit{}, err
		}
		live = append(live, streamed{s, reps})
	}
	d.kill()

	m, t0 := startUnit(), time.Now()
	d, err = startDaemon(bin, dataDir)
	if err != nil {
		return unit{}, err
	}
	defer d.stop()
	var took unit
	for i, st := range w.traces {
		h := newHello(w, st)
		h.Resume, h.AckedEpoch = live[i].session, len(st.rows)-1
		t.add(w.name, st, finishResumed(d.addr, h, st, live[i].reps, func() {
			if i == 0 {
				took = m.done(time.Since(t0).Seconds())
			}
		}))
	}
	if took.Value == 0 {
		return unit{}, fmt.Errorf("no session resumed after the restart")
	}
	return took, nil
}

// streamUnfinished opens a session, sends every epoch and waits for every
// Ack, and returns the session token and the reports received — leaving
// the session unfinished for the crash.
func streamUnfinished(addr string, w *workload, st *sessionTrace) (string, []core.Report, error) {
	c, err := dial(addr)
	if err != nil {
		return "", nil, err
	}
	defer c.c.Close()
	wel, err := c.hello(newHello(w, st))
	if err != nil {
		return "", nil, err
	}
	errc := make(chan error, 1)
	var reps []core.Report
	last := len(st.rows) - 1
	go func() {
		for {
			ft, payload, err := proto.ReadFrame(c.br)
			if err != nil {
				errc <- err
				return
			}
			switch ft {
			case proto.FrameAck:
				num, err := proto.DecodeAck(payload)
				if err != nil || num == last {
					errc <- err
					return
				}
			case proto.FrameReports:
				var rep proto.Reports
				if err := proto.DecodeReports(payload, &rep); err != nil {
					errc <- err
					return
				}
				reps = append(reps, rep.Reports...)
			default:
				errc <- fmt.Errorf("unexpected %v frame: %s", ft, payload)
				return
			}
		}
	}()
	for _, p := range st.payload {
		if err := proto.WriteFrame(c.bw, proto.FrameEpoch, p); err != nil {
			c.c.Close()
			<-errc
			return "", nil, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		c.c.Close()
		<-errc
		return "", nil, err
	}
	if err := <-errc; err != nil {
		return "", nil, err
	}
	return wel.Session, reps, nil
}

// finishResumed resumes a recovered session, calls welcomed as soon as its
// Welcome arrives, then ends it and gates the full report list.
func finishResumed(addr string, h proto.Hello, st *sessionTrace, reps []core.Report, welcomed func()) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.c.Close()
	wel, err := c.hello(h)
	if err != nil {
		return err
	}
	welcomed()
	if !wel.Recovered || wel.NextEpoch != len(st.rows) {
		return fmt.Errorf("resume Welcome %+v: want a recovered session at epoch %d", wel, len(st.rows))
	}
	if err := c.end(); err != nil {
		return err
	}
	var done proto.Done
	if err := readSession(c, func(int) {}, &reps, &done); err != nil {
		return err
	}
	if err := c.end(); err != nil {
		return err
	}
	return checkResult(st, done.Epochs, done.Events, reps)
}
