package server_test

// Overload-control coverage (DESIGN.md §15), runnable without the
// failpoints build tag: memory budgets must shed load without ever
// changing results, handshake rejects must leak no registry slots, slow
// clients must be disconnected instead of wedging the server, and a client
// facing a dead server must give up in bounded wall-clock time.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"butterfly/internal/client"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/obs"
	"butterfly/internal/proto"
	"butterfly/internal/server"
	"butterfly/internal/trace"
)

// TestMemBudgetShedsWithoutChangingResults runs 8 concurrent sessions
// against a global memory budget every single session exceeds on its own.
// The server must shed and reject aggressively — and every session must
// still finish byte-identical, because shedding only ever happens between
// acked epochs and rejected resumes are retried with backoff.
func TestMemBudgetShedsWithoutChangingResults(t *testing.T) {
	const sessions = 8
	reg := obs.New()
	s := startServer(t, server.Config{
		MaxSessions: sessions,
		MemBudget:   1, // any analysis state at all is "over budget"
		DetachGrace: time.Minute,
		Obs:         reg,
	})
	// Workloads and oracles are built on the test goroutine; the sessions
	// below only run the wire side.
	grids := make([]*epoch.Grid, sessions)
	wants := make([]*core.Result, sessions)
	for i := range grids {
		grids[i] = pickTrace(t, int64(8100+i*50), 2+i%4, 4)
		wants[i] = oracleRun(t, "addrcheck", grids[i])
	}
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, want := grids[i], wants[i]
			got, err := client.Run(s.Addr(), client.Options{
				MaxRetries:  200,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  10 * time.Millisecond,
			}, epoch.NewGridRows(g))
			if err != nil {
				errs[i] = err
				return
			}
			if got.Epochs != want.Epochs || got.Events != want.Events ||
				len(got.Reports) != len(want.Reports) {
				errs[i] = fmt.Errorf("result shape diverged under memory pressure")
				return
			}
			for j := range got.Reports {
				if got.Reports[j] != want.Reports[j] {
					errs[i] = fmt.Errorf("report %d diverged under memory pressure", j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("session %d: %v", i, err)
		}
	}
	shed := reg.Counter(obs.MetricMemBudgetShed).Value()
	rejects := reg.Counter(obs.MetricMemBudgetRejects).Value()
	if shed+rejects == 0 {
		t.Error("8 concurrent sessions over a 1-byte budget caused no sheds and no rejects")
	}
	t.Logf("memory pressure: %d sheds, %d overloaded rejects", shed, rejects)
}

// TestSessionMemQuotaAborts pins the per-session budget: a session that
// alone exceeds it is aborted with the quota-mem code, a terminal error.
func TestSessionMemQuotaAborts(t *testing.T) {
	s := startServer(t, server.Config{SessionMemBudget: 1})
	g := pickTrace(t, 8200, 3, 2)
	_, err := client.Run(s.Addr(), client.Options{
		MaxRetries:  4,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
	}, epoch.NewGridRows(g))
	if err == nil || !strings.Contains(err.Error(), "(quota-mem)") {
		t.Fatalf("err = %v, want a (quota-mem) session abort", err)
	}
}

// TestRejectFloodLeavesNoSlots hammers the handshake with every reject
// class and then proves the registry is untouched: zero live sessions, and
// exactly MaxSessions Welcomes still fit before "full".
func TestRejectFloodLeavesNoSlots(t *testing.T) {
	reg := obs.New()
	s := startServer(t, server.Config{MaxSessions: 2, Obs: reg})
	ds, err := obs.StartDebugServer("localhost:0", reg, s.DebugEndpoints()...)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	bad := []proto.Hello{
		{Proto: proto.Version, Lifeguard: "nosuch", NumThreads: 2},
		{Proto: proto.Version, Lifeguard: "addrcheck", NumThreads: 0},
		{Proto: proto.Version, Lifeguard: "addrcheck", NumThreads: 1 << 20},
		{Proto: 99, Lifeguard: "addrcheck", NumThreads: 2},
		{Proto: proto.Version, Lifeguard: "addrcheck", NumThreads: 2,
			Resume: "00ff00ff00ff00ff00ff00ff00ff00ff", AckedEpoch: -1},
	}
	for round := 0; round < 20; round++ {
		h := bad[round%len(bad)]
		conn, ft, _ := rawHello(t, s.Addr(), h)
		if ft != proto.FrameReject {
			t.Fatalf("round %d: got %v frame, want Reject", round, ft)
		}
		conn.Close()
	}

	// The registry must be back at baseline: /sessions empty...
	resp, err := http.Get("http://" + ds.Addr() + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var answer struct {
		Sessions []json.RawMessage `json:"sessions"`
	}
	if err := json.Unmarshal(body, &answer); err != nil {
		t.Fatal(err)
	}
	if len(answer.Sessions) != 0 {
		t.Fatalf("/sessions lists %d sessions after a reject flood, want 0", len(answer.Sessions))
	}

	// ...and the full admission capacity is still there.
	for i := 0; i < 2; i++ {
		conn, ft, payload := rawHello(t, s.Addr(), validHello())
		defer conn.Close()
		if ft != proto.FrameWelcome {
			t.Fatalf("post-flood admission %d: got %v frame (%s), want Welcome", i, ft, payload)
		}
	}
	conn, ft, payload := rawHello(t, s.Addr(), validHello())
	defer conn.Close()
	wantReject(t, ft, payload, "full")
}

// stormBytes is how much Reports traffic TestWriteDeadlineDropsSlowClient
// must provoke: well past worst-case kernel buffering (Linux autotunes a
// loopback send buffer to ~4MB) of a client that never reads.
const stormBytes = 16 << 20

// reportStormRow returns one epoch row of a single thread whose every
// access is an unallocated-heap read — one addrcheck report per event — and
// how many epochs of it make the server write at least stormBytes of
// Reports frames back, measured from the encoded frame itself (the first
// epoch's, whose varints are the shortest).
func reportStormRow(t *testing.T, perEpoch int) (row []trace.Event, epochs int) {
	t.Helper()
	b := trace.NewBuilder(1)
	b.T(0)
	for i := 0; i < perEpoch; i++ {
		b.Read(0x100+uint64(i%64)*8, 4)
	}
	tr := b.Build()
	g, err := epoch.ChunkByCount(tr, perEpoch)
	if err != nil {
		t.Fatal(err)
	}
	res := oracleRun(t, "addrcheck", g)
	if len(res.Reports) != perEpoch {
		t.Fatalf("storm epoch has %d reports, want %d", len(res.Reports), perEpoch)
	}
	var frame bytes.Buffer
	if err := proto.WriteReports(&frame, proto.Reports{Epoch: 0, Reports: res.Reports}); err != nil {
		t.Fatal(err)
	}
	return tr.Threads[0], (stormBytes + frame.Len() - 1) / frame.Len()
}

// dialSmallReadBuffer connects with a tiny receive buffer, set before the
// connection exists so the window is small from its first advertisement.
// Shrinking an advertised window instead (SetReadBuffer after Dial) drops
// segments already in flight, and the upload can stall in retransmit
// backoff before the server's send buffer ever fills.
func dialSmallReadBuffer(addr string) (net.Conn, error) {
	d := net.Dialer{Control: func(_, _ string, c syscall.RawConn) error {
		return c.Control(func(fd uintptr) {
			syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 256) //nolint:errcheck // best-effort
		})
	}}
	return d.Dial("tcp", addr)
}

// TestWriteDeadlineDropsSlowClient connects a client that sends epochs but
// never reads the acks and reports coming back. Once the kernel buffers
// fill, the server's writes stall; the write deadline must trip and the
// session must be detached — the worker pool can never be held hostage by
// one slow reader.
func TestWriteDeadlineDropsSlowClient(t *testing.T) {
	reg := obs.New()
	s := startServer(t, server.Config{
		WriteTimeout: 50 * time.Millisecond,
		DetachGrace:  time.Minute,
		Obs:          reg,
	})
	// The storm must overflow worst-case kernel buffering: enough epochs of
	// 64 reports each that at least stormBytes of Reports frames come back
	// to a client that never reads them.
	row, epochs := reportStormRow(t, 64)

	conn, err := dialSmallReadBuffer(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	p := &protoSession{t: t, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	h := validHello()
	h.NumThreads = 1
	if w, rej := p.hello(h); w == nil {
		t.Fatalf("handshake rejected: %+v", rej)
	}

	// Feed epochs from a goroutine, reading nothing back. Writes start
	// failing once the server detaches us; that is the success condition,
	// so errors just end the feed.
	go func() {
		bw := bufio.NewWriter(p.conn)
		for l := 0; l < epochs; l++ {
			payload, err := proto.EncodeEpoch(l, [][]trace.Event{row})
			if err != nil {
				return
			}
			if err := proto.WriteFrame(bw, proto.FrameEpoch, payload); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}()

	timeouts := reg.Counter(obs.MetricServerWriteTimeouts)
	active := reg.Gauge(obs.MetricSessionsActive)
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if timeouts.Value() >= 1 && active.Value() == 0 {
			return // deadline tripped and the slow session was detached
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("write deadline never tripped: timeouts=%d active=%d",
		timeouts.Value(), active.Value())
}

// TestReconnectMaxBoundsADeadServer points the client at a dialer that
// never succeeds. With -reconnect-max set, the run must give up within
// roughly that wall-clock bound — and since no handshake ever completed,
// the error must be ErrUnreachable, the "service is not there" sentinel.
func TestReconnectMaxBoundsADeadServer(t *testing.T) {
	start := time.Now()
	_, err := client.Run("127.0.0.1:1", client.Options{
		MaxRetries:   1 << 20, // the retry-count limit must not be what stops us
		BaseBackoff:  5 * time.Millisecond,
		MaxBackoff:   10 * time.Millisecond,
		ReconnectMax: 150 * time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			return nil, errors.New("synthetic refusal")
		},
	}, epoch.NewGridRows(pickTrace(t, 8300, 2, 2)))
	elapsed := time.Since(start)
	if !errors.Is(err, client.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("gave up after %v, want roughly the 150ms reconnect-max", elapsed)
	}
}

// TestReconnectMaxSurvivesFlakiness is the other half of the contract: a
// generous -reconnect-max must never fire while individual outages are
// short, even when every connection through the chaos proxy dies. The
// outage clock resets on progress, not on attempts.
func TestReconnectMaxSurvivesFlakiness(t *testing.T) {
	s := startServer(t, server.Config{DetachGrace: time.Minute})
	g := pickTrace(t, 8400, 3, 4)
	want := oracleRun(t, "addrcheck", g)
	proxy := newChaosProxy(t, s.Addr(), 400)
	got, err := client.Run(proxy.addr(), client.Options{
		MaxRetries:   60,
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
		ReconnectMax: 30 * time.Second,
	}, epoch.NewGridRows(g))
	if err != nil {
		t.Fatalf("after %d proxy conns: %v", proxy.conns(), err)
	}
	checkRemote(t, "addrcheck", got, want)
}
