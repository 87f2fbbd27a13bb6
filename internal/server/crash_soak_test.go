package server_test

// The crash soak (DESIGN.md §14): butterflyd is run as a real subprocess
// over a durable store and SIGKILLed mid-stream, repeatedly, while one
// client streams a dense trace through it with reconnect/resume. SIGKILL —
// not Shutdown — is the honest failure mode: no flush hooks, no deferred
// Close, just whatever AppendEpoch pushed into the kernel before each Ack.
// The final result must be byte-identical to the in-process oracle. Run by
// `make crash-soak` (and `make ci`) under -race.

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"butterfly/internal/client"
	"butterfly/internal/core"
	"butterfly/internal/epoch"
	"butterfly/internal/server"
	"butterfly/internal/store"
	"butterfly/internal/trace"
)

// buildButterflyd compiles the real daemon binary (without -race: the child
// is observed only through the wire protocol, and a race-free build keeps
// kill windows tight).
func buildButterflyd(tb testing.TB) string {
	tb.Helper()
	bin := filepath.Join(tb.TempDir(), "butterflyd")
	out, err := exec.Command("go", "build", "-o", bin, "butterfly/cmd/butterflyd").CombinedOutput()
	if err != nil {
		tb.Fatalf("go build butterflyd: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves a loopback port and releases it for the child to claim.
// The client needs one stable address across restarts, so listen-on-:0 is
// not an option; the tiny reuse race is acceptable in a test.
func freeAddr(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// crashTarget manages one butterflyd child process that the test repeatedly
// SIGKILLs and relaunches over the same data directory.
type crashTarget struct {
	tb      testing.TB
	bin     string
	addr    string
	dataDir string
	fsync   string
	cmd     *exec.Cmd
	out     bytes.Buffer
}

func (c *crashTarget) start() {
	c.tb.Helper()
	cmd := exec.Command(c.bin,
		"-addr", c.addr,
		"-data-dir", c.dataDir,
		"-fsync", c.fsync,
		"-log-level", "warn")
	cmd.Stdout = &c.out
	cmd.Stderr = &c.out
	if err := cmd.Start(); err != nil {
		c.tb.Fatalf("start butterflyd: %v", err)
	}
	c.cmd = cmd
	// Startup includes WAL recovery; wait until the listener answers.
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", c.addr, 100*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		if time.Now().After(deadline) {
			c.kill()
			c.tb.Fatalf("butterflyd did not come up on %s: %v\n%s", c.addr, err, c.out.Bytes())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill delivers SIGKILL and reaps the child. Wait also joins the stdout
// copier, so c.out is safe to read afterwards.
func (c *crashTarget) kill() {
	if c.cmd == nil {
		return
	}
	c.cmd.Process.Kill()
	c.cmd.Wait()
	c.cmd = nil
}

// soakGrid is benchGridT scaled up (4 threads × 8192 events, 512 epochs)
// so the stream is long enough for several kills to land mid-flight.
func soakGrid(t *testing.T) *epoch.Grid {
	t.Helper()
	b := trace.NewBuilder(4)
	for th := 0; th < 4; th++ {
		b.T(trace.ThreadID(th))
		for i := 0; i < 8192; i++ {
			b.Read(0x100+uint64(i%64)*8, 4)
		}
	}
	g, err := epoch.ChunkByCount(b.Build(), 16)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCrashSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repeatedly kills a butterflyd subprocess")
	}
	bin := buildButterflyd(t)
	g := soakGrid(t)
	want := oracleRun(t, "addrcheck", g)

	// batched is the default and the interesting policy: acks outrun
	// fsync, so SIGKILL durability rests on write-before-Ack alone.
	for _, fsync := range []string{"batched", "per-ack"} {
		t.Run("fsync="+fsync, func(t *testing.T) {
			const kills = 5
			c := &crashTarget{tb: t, bin: bin, addr: freeAddr(t),
				dataDir: t.TempDir(), fsync: fsync}
			c.start()
			t.Cleanup(c.kill)

			type outcome struct {
				res *core.Result
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := client.Run(c.addr, client.Options{
					MaxRetries:  1000,
					BaseBackoff: 5 * time.Millisecond,
					MaxBackoff:  50 * time.Millisecond,
				}, epoch.NewGridRows(g))
				done <- outcome{res, err}
			}()

			rng := rand.New(rand.NewSource(0xdead))
			killed := 0
			var got outcome
		loop:
			for killed < kills {
				select {
				case got = <-done:
					break loop
				case <-time.After(time.Duration(10+rng.Intn(30)) * time.Millisecond):
					c.kill()
					killed++
					c.start()
				}
			}
			if got.res == nil {
				select {
				case got = <-done:
				case <-time.After(60 * time.Second):
					t.Fatalf("client did not finish after %d kills\nserver log:\n%s",
						killed, c.out.Bytes())
				}
			}
			if got.err != nil {
				t.Fatalf("client failed after %d kills: %v\nserver log:\n%s",
					killed, got.err, c.out.Bytes())
			}
			t.Logf("survived %d SIGKILLs (%s)", killed, fsync)
			checkRemote(t, "addrcheck", got.res, want)
		})
	}
}

// BenchmarkServerThroughputWAL is BenchmarkServerThroughput with the
// durable store in each fsync policy, for the EXPERIMENTS.md durability
// ablation: what an Ack costs once it implies persistence.
func BenchmarkServerThroughputWAL(b *testing.B) {
	for _, mode := range []string{"off", "batched", "per-ack"} {
		b.Run("fsync="+mode, func(b *testing.B) {
			fsync, err := store.ParseFsync(mode)
			if err != nil {
				b.Fatal(err)
			}
			st, err := store.Open(store.Options{Dir: b.TempDir(), Fsync: fsync})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			s, err := server.Listen("127.0.0.1:0", server.Config{MaxSessions: 1024, Store: st})
			if err != nil {
				b.Fatal(err)
			}
			go s.Serve()
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()

			g := benchGrid(b, 1)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				res, err := client.Run(s.Addr(), client.Options{}, epoch.NewGridRows(g))
				if err != nil {
					b.Fatal(err)
				}
				if res.Events != g.TotalEvents() {
					b.Fatalf("analyzed %d events, want %d", res.Events, g.TotalEvents())
				}
			}
			b.ReportMetric(float64(g.TotalEvents())*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
