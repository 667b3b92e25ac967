package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

// server is one xqserve child process listening on loopback.
type server struct {
	cmd  *exec.Cmd
	base string
	// exited receives the process's Wait result exactly once.
	exited   chan error
	stopOnce sync.Once
	stderr   *tailWriter
	// setup is the time from starting the process to the first 200 from
	// /healthz.
	setup time.Duration
}

// startServer starts xqserve with the given flags on a free loopback
// port and waits until it reports ready.
func startServer(bin string, flags []string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1), stderr: &tailWriter{max: 4096}}
	cmd.Stderr = s.stderr
	// The server must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting xqserve: %w", err)
	}
	go func() { s.exited <- cmd.Wait() }()

	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(150 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
			if resp.StatusCode != http.StatusServiceUnavailable {
				s.stop()
				return nil, fmt.Errorf("xqserve /healthz answered %d: %s", resp.StatusCode, s.stderr)
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			return nil, fmt.Errorf("xqserve exited before ready (%v): %s", err, s.stderr)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("xqserve not ready after 150s")
		}
	}
}

// stop interrupts the server, kills it if it has not exited after 20s,
// and waits for the process to end. Later calls do nothing.
func (s *server) stop() {
	s.stopOnce.Do(func() {
		// Signal fails only when the process has already exited.
		_ = s.cmd.Process.Signal(os.Interrupt)
		select {
		case <-s.exited:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	})
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// snapshot reads the executor counters from /stats.
func (s *server) snapshot() (service.Snapshot, error) {
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(s.base + "/stats")
	if err != nil {
		return service.Snapshot{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Snapshot service.Snapshot `json:"snapshot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return service.Snapshot{}, fmt.Errorf("decoding /stats: %w", err)
	}
	return body.Snapshot, nil
}

// tailWriter keeps the last max bytes written to it, for error messages.
type tailWriter struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailWriter) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}
