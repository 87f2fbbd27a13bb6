package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"butterfly/internal/proto"
)

// daemon is one butterflyd subprocess.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// exited is closed once the process has been waited for.
	exited chan struct{}
}

// startDaemon execs butterflyd with its default flags — only the listen
// address (an ephemeral loopback port) and, when dataDir is set, the
// durable store directory are given — and returns once it logs its
// listening address.
func startDaemon(bin, dataDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting butterflyd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if addr, ok := listenAddr(line); ok {
				select {
				case addrc <- addr:
				default:
				}
			}
		}
		io.Copy(io.Discard, stderr) // keep draining after an overlong line
	}()
	go func() {
		<-logDone
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("butterflyd exited before listening: %v", cmd.ProcessState)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("butterflyd did not report a listening address")
	}
}

// listenAddr extracts addr=HOST:PORT from butterflyd's "listening" log line.
func listenAddr(line string) (string, bool) {
	if !strings.Contains(line, "butterflyd listening") {
		return "", false
	}
	for _, f := range strings.Fields(line) {
		if a, ok := strings.CutPrefix(f, "addr="); ok {
			return a, true
		}
	}
	return "", false
}

// kill SIGKILLs the process and waits until it has been reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stop asks for a graceful drain (SIGTERM) and falls back to SIGKILL.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.kill()
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// conn is a raw protocol connection.
type conn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}, nil
}

// hello sends a Hello and returns the Welcome; a Reject is an error.
func (c *conn) hello(h proto.Hello) (proto.Welcome, error) {
	var w proto.Welcome
	if err := proto.WriteJSON(c.bw, proto.FrameHello, h); err != nil {
		return w, err
	}
	if err := c.bw.Flush(); err != nil {
		return w, err
	}
	ft, payload, err := proto.ReadFrame(c.br)
	if err != nil {
		return w, fmt.Errorf("reading handshake answer: %w", err)
	}
	if ft != proto.FrameWelcome {
		return w, fmt.Errorf("handshake answered with %v: %s", ft, payload)
	}
	return w, json.Unmarshal(payload, &w)
}

// end writes an End frame: the end of the trace before Done, the goodbye
// after it.
func (c *conn) end() error {
	if err := proto.WriteFrame(c.bw, proto.FrameEnd, nil); err != nil {
		return err
	}
	return c.bw.Flush()
}

// startTimed execs butterflyd and returns it with the time from exec to
// the Welcome of a fresh session (opened with hello and closed again with
// End and the goodbye), which is the setup_s sample.
func startTimed(bin, dataDir string, h proto.Hello) (*daemon, float64, proto.Welcome, error) {
	t0 := time.Now()
	d, err := startDaemon(bin, dataDir)
	if err != nil {
		return nil, 0, proto.Welcome{}, err
	}
	c, err := dial(d.addr)
	if err != nil {
		d.kill()
		return nil, 0, proto.Welcome{}, err
	}
	defer c.c.Close()
	w, err := c.hello(h)
	took := time.Since(t0).Seconds()
	if err == nil {
		err = closeEmptySession(c)
	}
	if err != nil {
		d.kill()
		return nil, 0, w, err
	}
	return d, took, w, nil
}

// closeEmptySession finishes a session that was sent no epochs.
func closeEmptySession(c *conn) error {
	if err := c.end(); err != nil {
		return err
	}
	for {
		ft, payload, err := proto.ReadFrame(c.br)
		if err != nil {
			return err
		}
		switch ft {
		case proto.FrameDone:
			return c.end()
		case proto.FrameReports:
		default:
			return fmt.Errorf("unexpected %v frame closing a session: %s", ft, payload)
		}
	}
}
